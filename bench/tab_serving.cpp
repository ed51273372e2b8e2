// Serving-path costs: what a front-end pays for snapshot-isolated
// reads (see src/core/read_snapshot.h and src/server/).
//
// Columns per history size N:
//   * acq cold  — AcquireSnapshot right after an append: the capture
//     alone, i.e. the ripe drain plus a deep copy of the engine. This
//     is all a serving writer holds its lock for.
//   * seal      — the first query on that fresh capture: it seals the
//     copy (drains the copy's re-order buffer, runs PBE-1's residual
//     staircase DP over every open cell buffer). A cold view costs
//     acq cold + seal in all; the seal runs on the reader.
//   * live / view — MemoryUsage() of the live engine and of a sealed
//     view of it. The live engine holds every cell's open buffer; a
//     sealed view holds only the cells' models.
//   * acq warm  — AcquireSnapshot with no intervening append: the
//     cached capture is shared, so this is shared_ptr bookkeeping.
//   * point 1thr / 4thr — POINT query throughput against one sealed
//     snapshot, single reader vs four concurrent readers (the
//     snapshot is immutable, so scaling should be near-linear). Each
//     thread count runs for at least kReaderSeconds after every
//     reader has started, so the rate is not thread start-up.
//
// Expectation: cold acquisition and the seal grow with sketch size
// (not history length — the grid is fixed), the seal dominates cold
// cost, a sealed view is several times smaller than the live engine,
// warm acquisition is ~constant and orders of magnitude cheaper, and
// reader throughput scales with threads because no lock is held
// during queries.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/burst_engine.h"
#include "core/read_snapshot.h"
#include "util/stopwatch.h"

using namespace bursthist;
using namespace bursthist::bench;

namespace {

BurstEngine<Pbe1> BuildEngine(EventId universe, size_t n, uint64_t seed) {
  BurstEngineOptions<Pbe1> options;
  options.universe_size = universe;
  BurstEngine<Pbe1> engine(options);
  Rng rng(seed);
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    (void)engine.Append(static_cast<EventId>(rng.NextBelow(universe)), t);
  }
  return engine;
}

// Seconds each reader-thread count runs for.
constexpr double kReaderSeconds = 0.5;

// POINT queries per second across `threads` readers of one sealed
// snapshot, timed from the moment every reader is running until
// kReaderSeconds later.
double ReaderQps(const std::shared_ptr<const ReadSnapshot<Pbe1>>& snap,
                 EventId universe, int threads, uint64_t seed) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0};
  std::atomic<double> sink{0.0};
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      Rng rng(seed ^ (0x9e37 * (i + 1)));
      const Timestamp w = snap->watermark();
      double local = 0.0;
      uint64_t done = 0;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        for (int q = 0; q < 256; ++q) {
          const EventId e = static_cast<EventId>(rng.NextBelow(universe));
          const Timestamp t = static_cast<Timestamp>(rng.NextBelow(
              static_cast<uint64_t>(w > 0 ? w : 1)));
          local += snap->Point(e, t, 16).value;
        }
        done += 256;
      }
      total.fetch_add(done);
      sink.store(local);  // keep the loop alive
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Stopwatch sw;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(kReaderSeconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  return static_cast<double>(total.load()) / sw.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  Banner(cfg, "Serving-path costs: capture, seal, and reader scaling",
         "cold cost = capture + seal, the seal (DP) dominating; warm "
         "acquire ~constant and far below cold; reader throughput scales "
         "near-linearly with threads");

  const EventId universe = 64;
  const size_t base = static_cast<size_t>(2.0e6 * cfg.scale);
  std::printf("%10s %14s %14s %11s %11s %14s %14s %14s\n", "N",
              "acq cold (us)", "seal (us)", "live (KiB)", "view (KiB)",
              "acq warm (us)", "point 1thr/s", "point 4thr/s");
  for (size_t n : {base / 4 + 1, base + 1, 4 * base + 1}) {
    BurstEngine<Pbe1> engine = BuildEngine(universe, n, cfg.seed);

    // Cold: every acquisition pays the capture (append invalidates),
    // and the first query on it pays the seal.
    const int kColdReps = 10;
    double cold_us = 0.0, seal_us = 0.0;
    Stopwatch sw;
    for (int i = 0; i < kColdReps; ++i) {
      (void)engine.Append(0, engine.Watermark());  // invalidate the cache
      sw.Reset();
      auto snap = engine.AcquireSnapshot();
      cold_us += sw.Micros();
      sw.Reset();
      (void)snap->Point(0, engine.Watermark(), 16);
      seal_us += sw.Micros();
    }
    cold_us /= kColdReps;
    seal_us /= kColdReps;

    // Warm: cache hit, shared capture.
    const int kWarmReps = 1000;
    sw.Reset();
    for (int i = 0; i < kWarmReps; ++i) (void)engine.AcquireSnapshot();
    const double warm_us = sw.Micros() / kWarmReps;

    auto snap = engine.AcquireSnapshot();
    (void)snap->total_count();  // sealed before the readers are timed
    const double qps1 = ReaderQps(snap, universe, 1, cfg.seed);
    const double qps4 = ReaderQps(snap, universe, 4, cfg.seed);

    std::printf("%10zu %14.1f %14.1f %11.1f %11.1f %14.3f %14.0f %14.0f\n", n,
                cold_us, seal_us, engine.MemoryUsage() / 1024.0,
                snap->engine().MemoryUsage() / 1024.0, warm_us, qps1, qps4);
  }
  Rule();
  MaybeEmitMetrics(cfg);
  return 0;
}
