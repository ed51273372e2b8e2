// Shared test utilities: the master random seed, the canonical
// floating-point comparison tolerances, a patcher for fields inside
// checksummed blobs, and a fault env scoped to one shard's files.
//
// Seed plumbing: every randomized test derives its per-case seeds from
// TestSeed(), which reads the BURSTHIST_TEST_SEED environment variable
// (decimal or 0x-hex) and falls back to a fixed default. The chosen
// seed is logged once per process, so any CI failure is reproducible
// with
//
//   BURSTHIST_TEST_SEED=<logged value> ctest -R <failing test>
//
// Tolerances: estimates in this library are either exact identities
// evaluated in floating point (kIdentityTol absorbs one rounding step)
// or quantities accumulated across many float operations (kAccumTol).
// Guarantee checks must NOT add ad-hoc epsilons on top of the
// Delta/gamma/epsilon*N bounds they verify — they add kIdentityTol or
// kAccumTol only, so a real bound violation cannot hide inside a
// hand-tuned slack.

#ifndef BURSTHIST_TESTS_TEST_UTIL_H_
#define BURSTHIST_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "recovery/fault_env.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/random.h"

namespace bursthist {
namespace test {

/// Tolerance for algebraic identities evaluated in double precision
/// (e.g. b~ == F~(t) - 2 F~(t-tau) + F~(t-2tau), or "never
/// overestimates" where both sides are exact integers stored as
/// doubles). Absorbs a single rounding step, nothing more.
inline constexpr double kIdentityTol = 1e-9;

/// Tolerance for values accumulated across many floating-point
/// operations (PLA segment evaluation, gamma-band arithmetic), where
/// rounding can compound beyond one ulp-scale step.
inline constexpr double kAccumTol = 1e-6;

/// Default master seed when BURSTHIST_TEST_SEED is unset. Fixed so CI
/// runs are deterministic; override the environment variable to
/// explore other universes or replay a failure.
inline constexpr uint64_t kDefaultTestSeed = 0x20260806ULL;

/// The process-wide master test seed (env BURSTHIST_TEST_SEED or the
/// default), logged to stderr on first use.
inline uint64_t TestSeed() {
  static const uint64_t seed = [] {
    const uint64_t s = SeedFromEnv("BURSTHIST_TEST_SEED", kDefaultTestSeed);
    std::fprintf(stderr,
                 "[test_util] master seed: %llu (reproduce with "
                 "BURSTHIST_TEST_SEED=%llu)\n",
                 static_cast<unsigned long long>(s),
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

/// A per-case seed: the master seed mixed with a fixed stream id, so
/// each test case sees an independent but reproducible stream.
inline uint64_t CaseSeed(uint64_t stream_id) {
  uint64_t state = TestSeed() ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
  return SplitMix64(state);
}

/// Overwrites the field at `payload_offset` (counted from the first
/// payload byte) inside the CRC frame of a versioned blob such as BENG
/// — u32 magic | u32 version | u64 payload_len | payload | u32 crc32c
/// (util/serialize.h's CrcFrame) — and re-seals the CRC32C trailer, so
/// a reader gets past the checksum and reaches the field's own checks.
template <typename T>
void PatchFramedField(std::vector<uint8_t>* blob, size_t payload_offset,
                      T value) {
  constexpr size_t kPayloadBegin = 16;
  uint64_t payload_len = 0;
  std::memcpy(&payload_len, blob->data() + 8, sizeof(payload_len));
  std::memcpy(blob->data() + kPayloadBegin + payload_offset, &value,
              sizeof(value));
  const uint32_t crc = Crc32c(blob->data() + kPayloadBegin, payload_len);
  std::memcpy(blob->data() + kPayloadBegin + payload_len, &crc, sizeof(crc));
}

/// Counts and fails writes to the files whose path contains
/// `shard_dir` only. Every other file goes straight to the base env, so
/// shards writing in parallel never share the fault counters. Chain
/// one per shard to count each shard's writes.
class OneShardFaultEnv : public FaultInjectionEnv {
 public:
  OneShardFaultEnv(Env* base, std::string shard_dir)
      : FaultInjectionEnv(base), base_(base), shard_dir_(std::move(shard_dir)) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    if (path.find(shard_dir_) == std::string::npos) {
      return base_->NewWritableFile(path);
    }
    return FaultInjectionEnv::NewWritableFile(path);
  }

 private:
  Env* base_;
  std::string shard_dir_;
};

}  // namespace test
}  // namespace bursthist

#endif  // BURSTHIST_TESTS_TEST_UTIL_H_
