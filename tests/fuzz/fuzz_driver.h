// Shared scaffolding for the fuzz targets.
//
// Every target defines the libFuzzer entry point
//
//   extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t n);
//
// and builds in two modes:
//
//  * BURSTHIST_FUZZ=ON (clang): compiled with -fsanitize=fuzzer,address
//    and BURSTHIST_FUZZ_LIBFUZZER defined — libFuzzer provides main()
//    and drives coverage-guided mutation from tests/fuzz/corpus/<t>/.
//  * Plain build (any compiler): this header provides a standalone
//    main() that replays every corpus file (or explicit file argument)
//    through the same entry point — registered as the <target>_corpus
//    ctest so the checked-in corpus regresses on every tier-1 run.
//
// The contract under test is always "clean Status or valid object":
// feeding arbitrary bytes to a deserializer must either fail with a
// Status or produce an object whose queries and re-serialization work —
// never crash, hang, overflow, or allocate absurdly.

#ifndef BURSTHIST_TESTS_FUZZ_FUZZ_DRIVER_H_
#define BURSTHIST_TESTS_FUZZ_FUZZ_DRIVER_H_

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

/// Aborts (so both libFuzzer and ctest flag the input) when a fuzz
/// invariant breaks. Used instead of assert() so the check survives
/// NDEBUG builds.
#define BURSTHIST_FUZZ_REQUIRE(cond)                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "fuzz invariant failed: %s at %s:%d\n", #cond, \
                   __FILE__, __LINE__);                                   \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

#ifndef BURSTHIST_FUZZ_LIBFUZZER

#include "util/env.h"

/// Corpus-regression main: each argument is a corpus directory (every
/// file inside replays) or a single input file.
int main(int argc, char** argv) {
  bursthist::Env* env = bursthist::Env::Default();
  size_t ran = 0;
  for (int i = 1; i < argc; ++i) {
    std::vector<std::string> paths;
    auto names = env->ListDir(argv[i]);
    if (names.ok()) {
      for (const auto& n : names.value()) {
        paths.push_back(std::string(argv[i]) + "/" + n);
      }
    } else {
      paths.emplace_back(argv[i]);
    }
    for (const auto& p : paths) {
      auto bytes = env->ReadFileBytes(p);
      if (!bytes.ok()) {
        std::fprintf(stderr, "unreadable corpus input: %s\n", p.c_str());
        return 1;
      }
      std::fprintf(stderr, "replaying %s (%zu bytes)\n", p.c_str(),
                   bytes.value().size());
      LLVMFuzzerTestOneInput(bytes.value().data(), bytes.value().size());
      ++ran;
    }
  }
  // The empty input is always part of the contract.
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(""), 0);
  std::printf("replayed %zu corpus inputs cleanly\n", ran);
  return 0;
}

#endif  // !BURSTHIST_FUZZ_LIBFUZZER

namespace bursthist_fuzz {

/// A per-process scratch directory for targets that must round-trip
/// through the filesystem (WAL, snapshot, CSV). It is removed, with
/// everything in it, when the process exits normally; an aborted run
/// keeps it for inspection.
inline const std::string& ScratchDir() {
  struct Scratch {
    explicit Scratch(std::string p) : path(std::move(p)) {}
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;
    ~Scratch() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::string path;
  };
  static const Scratch scratch([] {
    const char* tmp = std::getenv("TMPDIR");
    std::string d = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    // Pid-scoped so concurrently running fuzz targets never share
    // (and cross-contaminate) a directory.
    d += "/bursthist_fuzz_scratch_" + std::to_string(::getpid());
    return d;
  }());
  return scratch.path;
}

}  // namespace bursthist_fuzz

#endif  // BURSTHIST_TESTS_FUZZ_FUZZ_DRIVER_H_
