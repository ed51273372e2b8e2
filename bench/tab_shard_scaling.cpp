// Sharded-ingest scaling: batched-ingest throughput of a
// ClusterEngine at 1 / 2 / 4 shards on the bursty olympicrio mixture,
// against a plain single DurableBurstEngine baseline.
//
// Each shard owns its WAL, snapshot lineage, and sketch tree, so the
// per-record sketch work AND the WAL writes parallelize across shard
// workers; AppendBatch partitions each batch by the id-hash router and
// dispatches the sub-batches concurrently. The design target is
// near-linear scaling while cores last: >= 2.5x at 4 shards, with
// process CPU time >= 2.5x wall time (the workers really overlap). No
// CI job runs this bench; it is a measurement, not a gate. Each row
// prints wall and process CPU seconds so a reader can tell overlap
// from overhead.
//
// A scatter-gather query section reports what fan-out costs reads.
// The first read of a fresh ClusterSnapshot seals every shard view
// (the residual PBE-1 DP), so that cost is timed on its own as "seal"
// and the queries are timed on the sealed, warm view.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "recovery/durable_engine.h"
#include "shard/cluster_engine.h"
#include "util/env.h"

using namespace bursthist;
using namespace bursthist::bench;

namespace {

// User + system CPU seconds of the whole process, every thread
// included.
double ProcessCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

struct Timed {
  double seconds;
  double cpu_seconds;
  uint64_t records;
  double PerSecond() const { return records / seconds; }
};

template <typename Fn>
Timed Time(uint64_t records, Fn&& fn) {
  const double cpu0 = ProcessCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(),
          ProcessCpuSeconds() - cpu0, records};
}

void PrintRow(const char* label, const Timed& t, double speedup) {
  std::printf("%-30s %11.0f %8.2fx %7.2f %7.2f %8.2fx\n", label,
              t.PerSecond(), speedup, t.seconds, t.cpu_seconds,
              t.cpu_seconds / t.seconds);
}

// Cluster directories nest one level (dir/shard-000/wal-...).
void RemoveTree(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      const std::string path = dir + "/" + n;
      auto nested = env->ListDir(path);
      if (nested.ok()) {
        for (const auto& m : nested.value()) (void)env->DeleteFile(path + "/" + m);
        ::rmdir(path.c_str());
      }
      (void)env->DeleteFile(path);
    }
  }
  ::rmdir(dir.c_str());
}

constexpr size_t kBatch = 1024;

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  Banner(cfg, "Sharded-cluster ingest scaling (AppendBatch, batch=1024)",
         ">= 2.5x records/s at 4 shards vs 1, process CPU >= 2.5x wall");

  Dataset ds = MakeOlympicRio(cfg.Scenario());
  const uint64_t n = ds.stream.size();
  std::vector<WeightedRecord> records;
  records.reserve(n);
  for (const auto& r : ds.stream.records()) {
    records.push_back(WeightedRecord{r.id, r.time, 1});
  }
  std::printf("olympicrio: %llu records, universe %u, %ld cores\n\n",
              static_cast<unsigned long long>(n), ds.universe_size,
              ::sysconf(_SC_NPROCESSORS_ONLN));

  BurstEngineOptions<Pbe1> o;
  o.universe_size = ds.universe_size;

  Env* env = Env::Default();
  const std::string root = "/tmp/bursthist_shard_bench";
  RemoveTree(env, root);
  (void)env->CreateDirIfMissing(root);

  std::printf("%-30s %11s %9s %7s %7s %9s\n", "configuration", "records/s",
              "speedup", "wall s", "cpu s", "cpu/wall");

  // Baseline: one plain durable engine, same batched path.
  double single_rate = 0.0;
  {
    const std::string dir = root + "/single";
    (void)env->CreateDirIfMissing(dir);
    auto durable = DurableBurstEngine<Pbe1>::Open(env, dir, o);
    if (!durable.ok()) {
      std::printf("open failed: %s\n", durable.status().ToString().c_str());
      return 1;
    }
    Timed t = Time(n, [&] {
      for (size_t i = 0; i < records.size(); i += kBatch) {
        const size_t len = std::min(kBatch, records.size() - i);
        size_t applied = 0;
        (void)durable.value()->AppendBatch(
            std::span<const WeightedRecord>(records.data() + i, len),
            &applied);
      }
      (void)durable.value()->Sync();
    });
    single_rate = t.PerSecond();
    PrintRow("durable engine (no cluster)", t, 1.0);
  }

  double rate_at[5] = {0, 0, 0, 0, 0};
  double cpu_per_wall_at[5] = {0, 0, 0, 0, 0};
  for (size_t shards : {1, 2, 4}) {
    const std::string dir = root + "/c" + std::to_string(shards);
    (void)env->CreateDirIfMissing(dir);
    shard::ClusterOptions copts;
    copts.shards = shards;
    auto cluster = shard::ClusterEngine<Pbe1>::Open(env, dir, o, copts);
    if (!cluster.ok()) {
      std::printf("open failed: %s\n", cluster.status().ToString().c_str());
      return 1;
    }
    Timed t = Time(n, [&] {
      for (size_t i = 0; i < records.size(); i += kBatch) {
        const size_t len = std::min(kBatch, records.size() - i);
        size_t applied = 0;
        (void)cluster.value()->AppendBatch(
            std::span<const WeightedRecord>(records.data() + i, len),
            &applied);
      }
      (void)cluster.value()->Sync();
    });
    rate_at[shards] = t.PerSecond();
    cpu_per_wall_at[shards] = t.cpu_seconds / t.seconds;
    char label[48];
    std::snprintf(label, sizeof(label), "cluster, %zu shard%s", shards,
                  shards == 1 ? "" : "s");
    PrintRow(label, t, t.PerSecond() / rate_at[1]);

    // Scatter-gather read cost on the loaded cluster: BEVENT and TOPK
    // fan out to every shard and merge; POINT routes to one shard.
    // total_count() seals every shard view; the queries then run warm.
    auto snap = cluster.value()->AcquireSnapshot();
    Timed seal = Time(1, [&] { (void)snap->total_count(); });
    const Timestamp t_mid = ds.t_begin + (ds.t_end - ds.t_begin) / 2;
    const Timestamp tau = kSecondsPerDay;
    constexpr int kReps = 50;
    Timed q_point = Time(kReps, [&] {
      for (int i = 0; i < kReps; ++i) {
        (void)snap->Point(static_cast<EventId>(i) % ds.universe_size, t_mid,
                          tau);
      }
    });
    Timed q_event = Time(kReps, [&] {
      for (int i = 0; i < kReps; ++i) (void)snap->BurstyEvent(t_mid, 8.0, tau);
    });
    Timed q_topk = Time(kReps, [&] {
      for (int i = 0; i < kReps; ++i) (void)snap->TopK(t_mid, 10, tau);
    });
    std::printf("%-30s seal %7.1fms  point %6.2fus  bevent %8.1fus  "
                "topk %8.1fus\n",
                "", seal.seconds * 1e3, q_point.seconds / kReps * 1e6,
                q_event.seconds / kReps * 1e6, q_topk.seconds / kReps * 1e6);
  }

  Rule();
  std::printf("4-shard speedup vs 1-shard cluster: %.2fx (target 2.5x)\n",
              rate_at[4] / rate_at[1]);
  std::printf("4-shard process CPU / wall: %.2fx (target 2.5x)\n",
              cpu_per_wall_at[4]);
  std::printf("1-shard cluster overhead vs plain engine: %.2fx\n",
              rate_at[1] / single_rate);

  RemoveTree(env, root + "/single");
  RemoveTree(env, root + "/c1");
  RemoveTree(env, root + "/c2");
  RemoveTree(env, root + "/c4");
  RemoveTree(env, root);
  bursthist::bench::MaybeEmitMetrics(cfg);
  return 0;
}
