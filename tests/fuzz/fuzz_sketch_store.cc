// Fuzzes SketchStore loading: arbitrary bytes written as a named
// sketch file must load with a clean Status or a valid engine, and —
// critically — must never drive the engine constructor into a huge
// allocation from a hostile shape header before deserialization gets
// a chance to reject the payload.

#include "core/sketch_store.h"
#include "fuzz_driver.h"
#include "util/env.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace bursthist;
  Env* env = Env::Default();
  const std::string& dir = bursthist_fuzz::ScratchDir();
  if (!env->CreateDirIfMissing(dir).ok()) return 0;
  {
    auto file = env->NewWritableFile(dir + "/input.sketch");
    if (!file.ok()) return 0;
    if (size > 0 && !file.value()->Append(data, size).ok()) return 0;
    if (!file.value()->Close().ok()) return 0;
  }
  SketchStore store(dir);
  auto e1 = store.LoadEngine1("input");
  if (e1.ok()) {
    (void)e1.value().PointQuery(0, 100, 7);
    (void)e1.value().CumulativeQuery(0, 50);
  }
  auto e2 = store.LoadEngine2("input");
  if (e2.ok()) {
    (void)e2.value().PointQuery(0, 100, 7);
  }
  return 0;
}
