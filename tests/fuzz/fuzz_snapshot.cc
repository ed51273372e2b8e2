// Fuzzes snapshot loading: arbitrary bytes written as
// snapshot-00000001.snap must either fail verification with a Status
// or parse into contents whose embedded engine blob then deserializes
// with clean-Status-or-valid-object semantics.

#include "core/burst_engine.h"
#include "fuzz_driver.h"
#include "recovery/snapshot.h"
#include "util/env.h"
#include "util/serialize.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace bursthist;
  Env* env = Env::Default();
  const std::string& dir = bursthist_fuzz::ScratchDir();
  if (!env->CreateDirIfMissing(dir).ok()) return 0;

  const std::string path = SnapshotPath(dir, 1);
  {
    auto file = env->NewWritableFile(path);
    if (!file.ok()) return 0;
    if (size > 0 && !file.value()->Append(data, size).ok()) return 0;
    if (!file.value()->Close().ok()) return 0;
  }

  auto gens = ListSnapshots(env, dir);
  BURSTHIST_FUZZ_REQUIRE(gens.ok());  // listing never depends on content
  auto snap = ReadSnapshotFile(env, dir, 1);
  if (!snap.ok()) return 0;

  // The trailer checksum passed; the blob must still be treated as
  // untrusted by the engine deserializer.
  BurstEngineOptions<Pbe1> options;
  options.universe_size = 8;
  options.grid.depth = 2;
  options.grid.width = 4;
  options.cell.buffer_points = 16;
  options.cell.budget_points = 4;
  BurstEngine<Pbe1> engine(options);
  BinaryReader r(snap.value().blob);
  (void)engine.Deserialize(&r);
  return 0;
}
