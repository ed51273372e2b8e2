// Fuzzes WAL replay: arbitrary bytes written as a segment file must
// replay to either a clean result (possibly with a torn tail) or a
// Status::Corruption — never a crash, hang, or runaway allocation.
// Delivered records must decode like the durable engine's sink does.

#include "fuzz_driver.h"
#include "recovery/durable_engine.h"
#include "recovery/wal.h"
#include "util/env.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace bursthist;
  Env* env = Env::Default();
  const std::string& dir = bursthist_fuzz::ScratchDir();
  if (!env->CreateDirIfMissing(dir).ok()) return 0;

  const std::string path = WalSegmentPath(dir, 1);
  {
    auto file = env->NewWritableFile(path);
    if (!file.ok()) return 0;
    if (size > 0 && !file.value()->Append(data, size).ok()) return 0;
    if (!file.value()->Close().ok()) return 0;
  }

  uint64_t delivered = 0;
  auto replay = ReplayWal(
      env, dir, WalPosition{1, 0},
      [&delivered](WalRecordType type, const uint8_t* payload, size_t len,
                   const WalPosition&) {
        // Same decode the durable engine's sink performs; a payload the
        // checksum accepted may still be semantically malformed, which
        // must surface as a Status, not a crash.
        if (type == WalRecordType::kEvent) {
          EventId e = 0;
          Timestamp t = 0;
          Count count = 0;
          (void)recovery_internal::DecodeEventPayload(payload, len, &e, &t,
                                                      &count);
        }
        ++delivered;
        return Status::OK();
      });
  if (replay.ok()) {
    // A clean replay never claims more records than the input could
    // possibly frame (9 bytes of framing per record).
    BURSTHIST_FUZZ_REQUIRE(delivered <= size / 9 + 1);
    BURSTHIST_FUZZ_REQUIRE(replay.value().records == delivered);
  }
  return 0;
}
