// Fuzzes the CSV reader: arbitrary text must parse with a clean
// line-numbered Status or yield a stream that round-trips through
// write-then-read as a fixpoint.

#include "fuzz_driver.h"
#include "stream/csv_io.h"
#include "util/env.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace bursthist;
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto parsed = ParseEventStreamCsv(text);
  if (!parsed.ok()) return 0;

  Env* env = Env::Default();
  const std::string& dir = bursthist_fuzz::ScratchDir();
  if (!env->CreateDirIfMissing(dir).ok()) return 0;
  const std::string path = dir + "/stream.csv";
  BURSTHIST_FUZZ_REQUIRE(WriteEventStreamCsv(path, parsed.value()).ok());
  auto reread = ReadEventStreamCsv(path);
  BURSTHIST_FUZZ_REQUIRE(reread.ok());
  BURSTHIST_FUZZ_REQUIRE(reread.value().records() ==
                         parsed.value().records());
  return 0;
}
