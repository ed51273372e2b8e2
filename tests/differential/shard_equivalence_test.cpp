// Shard-equivalence differential suite: a ClusterEngine(N) must be
// indistinguishable from a single engine fed the same stream, up to
// the guarantees sharding actually makes.
//
// The load-bearing invariant is BYTE IDENTITY per shard: hash routing
// gives every event id one home shard, so shard i's engine state must
// serialize to exactly the bytes of a dedicated engine fed the routed
// subsequence — for ANY grid configuration, colliding or not. Every
// query claim follows from it:
//
//  * POINT / FREQ / BTIME route to the owning shard. With a
//    collision-free grid (identity hash, width >= universe) the
//    owning shard's cell for e sees exactly the appends the single
//    engine's cell saw, so answers are IDENTICAL — asserted to
//    kIdentityTol across >= 3 stream families.
//  * BURSTY EVENT / TOPK merge per-shard candidate sets. The dyadic
//    tree's interior nodes aggregate different id subsets per shard,
//    so pruning may recover recall the single engine's cancellation
//    lost (and vice versa) — the paper's own caveat. What must hold:
//    the cluster answer equals the merge of the dedicated reference
//    engines' answers exactly, and every disagreement with the single
//    engine is confined to ids whose leaf estimate clears theta on
//    both sides (pure prune-recall differences, never false
//    positives).
//  * Crash recovery: after a real SIGKILL at a scheduled crashpoint
//    inside the durability protocol, every recovered shard must be
//    byte-identical to a reference prefix of its routed subsequence,
//    jointly covering all acknowledged records — the single-engine
//    torture contract, per shard.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "differential/torture_harness.h"
#include "fault/crashpoint.h"
#include "recovery/durable_engine.h"
#include "shard/cluster_engine.h"
#include "shard/shard_router.h"
#include "test_util.h"
#include "util/env.h"
#include "util/serialize.h"

namespace bursthist {
namespace test {
namespace {

using shard::ClusterEngine;
using shard::ClusterOptions;
using shard::ShardDirName;
using shard::ShardRouter;

// Collision-free grid: identity hash with width == universe gives
// every event its own cell, so per-event estimates depend only on
// that event's own records — the configuration under which cluster
// and single answers must agree exactly.
BurstEngineOptions<Pbe1> ExactOptions(EventId universe,
                                      Timestamp lateness = 0) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = universe;
  o.grid.depth = 1;
  o.grid.width = universe;
  o.grid.identity_hash = true;
  o.cell.buffer_points = 32;
  o.cell.budget_points = 8;
  o.max_lateness = lateness;
  return o;
}

// A deliberately colliding grid, for the per-shard byte-identity
// check (which must hold regardless of collisions).
BurstEngineOptions<Pbe1> CollidingOptions(EventId universe) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = universe;
  o.grid.depth = 2;
  o.grid.width = universe / 4;
  o.cell.buffer_points = 32;
  o.cell.budget_points = 8;
  return o;
}

std::vector<uint8_t> EngineBytes(const BurstEngine<Pbe1>& engine) {
  BurstEngine<Pbe1> finalized(engine);
  finalized.Finalize();
  BinaryWriter w;
  finalized.Serialize(&w);
  return w.bytes();
}

// The routed subsequence of `records` homed on `shard`.
std::vector<EventRecord> RoutedSubsequence(
    const std::vector<EventRecord>& records, const ShardRouter& router,
    size_t shard) {
  std::vector<EventRecord> out;
  for (const auto& r : records) {
    if (router.ShardOf(r.id) == shard) out.push_back(r);
  }
  return out;
}

// Time-sorted arrivals for one family/seed (lateness 0 keeps the
// single/cluster validation rules identical record for record).
std::vector<EventRecord> SortedWorkload(StreamFamily family, EventId universe,
                                        size_t n, uint64_t seed) {
  StreamSpec spec{family, universe, n, seed, 0};
  auto arrivals = GenerateArrivals(spec);
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.time < b.time;
                   });
  return arrivals;
}

class ShardEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::Default(); }

  void TearDown() override {
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) RemoveTree(*it);
  }

  std::string NewDir(const std::string& tag) {
    std::string dir = testing::TempDir() + "/bursthist_shardeq_" + tag + "_" +
                      std::to_string(static_cast<unsigned long long>(
                          ::getpid())) +
                      "_" + std::to_string(dirs_.size());
    RemoveTree(dir);
    EXPECT_TRUE(env_->CreateDirIfMissing(dir).ok());
    dirs_.push_back(dir);
    return dir;
  }

  void RemoveTree(const std::string& dir) {
    auto names = env_->ListDir(dir);
    if (names.ok()) {
      for (const auto& n : names.value()) {
        const std::string path = dir + "/" + n;
        auto nested = env_->ListDir(path);
        if (nested.ok()) {
          for (const auto& m : nested.value()) {
            (void)env_->DeleteFile(path + "/" + m);
          }
          ::rmdir(path.c_str());
        }
        (void)env_->DeleteFile(path);
      }
    }
    ::rmdir(dir.c_str());
  }

  // Opens a cluster and feeds it the workload through the batched
  // (worker-parallel) path, in uneven chunk sizes so sub-batch
  // boundaries move around.
  Result<std::unique_ptr<ClusterEngine<Pbe1>>> FeedCluster(
      const std::string& dir, const BurstEngineOptions<Pbe1>& opts,
      size_t shards, const std::vector<EventRecord>& workload) {
    ClusterOptions copts;
    copts.shards = shards;
    auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, opts, copts);
    if (!cluster.ok()) return cluster.status();
    size_t i = 0;
    size_t chunk = 1;
    std::vector<WeightedRecord> batch;
    while (i < workload.size()) {
      const size_t n = std::min(chunk, workload.size() - i);
      batch.clear();
      for (size_t j = i; j < i + n; ++j) {
        batch.push_back(WeightedRecord{workload[j].id, workload[j].time, 1});
      }
      size_t applied = 0;
      BURSTHIST_RETURN_IF_ERROR(cluster.value()->AppendBatch(batch, &applied));
      if (applied != n) {
        return Status::Internal("batch applied " + std::to_string(applied) +
                                " of " + std::to_string(n));
      }
      i += n;
      chunk = chunk >= 96 ? 1 : chunk * 3 + 1;  // 1, 4, 13, 40, 121-capped
    }
    return cluster;
  }

  Env* env_ = nullptr;
  std::vector<std::string> dirs_;
};

constexpr StreamFamily kFamilies[] = {
    StreamFamily::kUniform, StreamFamily::kBursty, StreamFamily::kStaircase,
    StreamFamily::kDuplicates};

// ---------------------------------------------------------------------------
// Per-shard byte identity (any grid)
// ---------------------------------------------------------------------------

TEST_F(ShardEquivalenceTest, ShardsAreByteIdenticalToRoutedReferences) {
  constexpr EventId kUniverse = 16;
  constexpr size_t kShards = 3;
  size_t case_id = 0;
  for (StreamFamily family : kFamilies) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      const auto workload =
          SortedWorkload(family, kUniverse, 600, CaseSeed(seed));
      const auto opts = CollidingOptions(kUniverse);
      auto cluster = FeedCluster(NewDir("bytes" + std::to_string(case_id++)),
                                 opts, kShards, workload);
      ASSERT_TRUE(cluster.ok())
          << FamilyName(family) << " seed=" << seed << ": "
          << cluster.status().ToString();

      const ShardRouter& router = cluster.value()->router();
      for (size_t s = 0; s < kShards; ++s) {
        BurstEngine<Pbe1> reference(opts);
        for (const auto& r : RoutedSubsequence(workload, router, s)) {
          ASSERT_TRUE(reference.Append(r.id, r.time).ok());
        }
        EXPECT_EQ(cluster.value()->WithShard(
                      s, [](const auto& d) { return EngineBytes(d.engine()); }),
                  EngineBytes(reference))
            << FamilyName(family) << " seed=" << seed << " "
            << ShardDirName(s)
            << " not byte-identical to its routed reference";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Routed query identity (collision-free grid)
// ---------------------------------------------------------------------------

TEST_F(ShardEquivalenceTest, RoutedQueriesMatchSingleEngineExactly) {
  constexpr EventId kUniverse = 16;
  constexpr size_t kShards = 3;
  size_t case_id = 0;
  for (StreamFamily family : kFamilies) {
    for (uint64_t seed : {4ull, 5ull}) {
      const auto workload =
          SortedWorkload(family, kUniverse, 600, CaseSeed(seed));
      const auto opts = ExactOptions(kUniverse);

      BurstEngine<Pbe1> single(opts);
      for (const auto& r : workload) {
        ASSERT_TRUE(single.Append(r.id, r.time).ok());
      }
      auto cluster = FeedCluster(NewDir("query" + std::to_string(case_id++)),
                                 opts, kShards, workload);
      ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
      auto snap = cluster.value()->AcquireSnapshot();

      EXPECT_EQ(snap->total_count(), single.TotalCount());
      EXPECT_EQ(snap->watermark(), single.Watermark());

      const Timestamp hi = single.Watermark();
      const std::vector<Timestamp> ts = {0, hi / 3, hi / 2, hi, hi + 5};
      const std::vector<Timestamp> taus = {1, 2, hi / 4 + 1};
      for (EventId e = 0; e < kUniverse; ++e) {
        for (Timestamp t : ts) {
          for (Timestamp tau : taus) {
            EXPECT_NEAR(snap->Point(e, t, tau).value,
                        single.PointQuery(e, t, tau), kIdentityTol)
                << FamilyName(family) << " seed=" << seed << " POINT e=" << e
                << " t=" << t << " tau=" << tau;
          }
          EXPECT_NEAR(snap->Frequency(e, 0, t).value,
                      single.FrequencyQuery(e, 0, t), kIdentityTol)
              << FamilyName(family) << " seed=" << seed << " FREQ e=" << e
              << " t=" << t;
        }
        // BURSTY TIME routes whole: the owning shard's cell is the
        // single engine's cell, so intervals match exactly.
        for (double theta : {1.0, 3.0}) {
          const auto got = snap->BurstyTime(e, theta, 2).value;
          const auto want = single.BurstyTimeQuery(e, theta, 2);
          EXPECT_EQ(got.size(), want.size())
              << FamilyName(family) << " seed=" << seed << " BTIME e=" << e;
          for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
            EXPECT_EQ(got[i].begin, want[i].begin);
            EXPECT_EQ(got[i].end, want[i].end);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scatter-gather queries (collision-free grid)
// ---------------------------------------------------------------------------

TEST_F(ShardEquivalenceTest, ScatterGatherMergesAreExactAndBoundCompatible) {
  constexpr EventId kUniverse = 16;
  constexpr size_t kShards = 3;
  size_t case_id = 0;
  for (StreamFamily family : kFamilies) {
    for (uint64_t seed : {6ull, 7ull}) {
      const auto workload =
          SortedWorkload(family, kUniverse, 600, CaseSeed(seed));
      const auto opts = ExactOptions(kUniverse);

      BurstEngine<Pbe1> single(opts);
      for (const auto& r : workload) {
        ASSERT_TRUE(single.Append(r.id, r.time).ok());
      }
      auto cluster = FeedCluster(NewDir("gather" + std::to_string(case_id++)),
                                 opts, kShards, workload);
      ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
      auto snap = cluster.value()->AcquireSnapshot();
      const ShardRouter& router = cluster.value()->router();

      // Dedicated reference engines, one per shard (byte-identical to
      // the cluster's shards by the test above — rebuilt here so this
      // test stands alone).
      std::vector<BurstEngine<Pbe1>> refs;
      refs.reserve(kShards);
      for (size_t s = 0; s < kShards; ++s) {
        refs.emplace_back(opts);
        for (const auto& r : RoutedSubsequence(workload, router, s)) {
          ASSERT_TRUE(refs.back().Append(r.id, r.time).ok());
        }
      }

      const Timestamp hi = single.Watermark();
      for (Timestamp t : {hi / 2, hi}) {
        for (double theta : {0.5, 2.0, 5.0}) {
          const Timestamp tau = 2;
          const auto got = snap->BurstyEvent(t, theta, tau).value;

          // (a) The cluster answer IS the merge of the per-shard
          // reference answers — sharding adds nothing and loses
          // nothing beyond what each shard's own index reports.
          std::vector<EventId> want;
          for (auto& ref : refs) {
            const auto part = ref.BurstyEventQuery(t, theta, tau);
            want.insert(want.end(), part.begin(), part.end());
          }
          std::sort(want.begin(), want.end());
          EXPECT_EQ(got, want)
              << FamilyName(family) << " seed=" << seed << " BEVENT t=" << t
              << " theta=" << theta
              << " cluster answer != merged per-shard references";

          // (b) Bound compatibility with the single engine: any
          // disagreement must be a prune-recall difference — an id
          // whose leaf estimate clears theta (identical on both
          // sides) that one side's interior-node pruning dropped.
          // Neither side may report an id below theta.
          std::vector<EventId> leaf;
          for (EventId e = 0; e < kUniverse; ++e) {
            if (single.PointQuery(e, t, tau) >= theta - kIdentityTol) {
              leaf.push_back(e);
            }
          }
          const auto single_set = single.BurstyEventQuery(t, theta, tau);
          for (EventId e : got) {
            EXPECT_TRUE(std::binary_search(leaf.begin(), leaf.end(), e))
                << "cluster reported e=" << e << " below theta=" << theta;
          }
          for (EventId e : single_set) {
            EXPECT_TRUE(std::binary_search(leaf.begin(), leaf.end(), e))
                << "single reported e=" << e << " below theta=" << theta;
          }

          // TOPK: the cluster merge must equal the deterministic k-best
          // of the per-shard reference answers (value desc, id asc).
          const size_t k = 4;
          auto topk = snap->TopK(t, k, tau).value;
          std::vector<std::pair<EventId, double>> merged;
          for (auto& ref : refs) {
            const auto part = ref.TopKBurstyEvents(t, k, tau);
            merged.insert(merged.end(), part.begin(), part.end());
          }
          std::sort(merged.begin(), merged.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
          if (merged.size() > k) merged.resize(k);
          ASSERT_EQ(topk.size(), merged.size());
          for (size_t i = 0; i < topk.size(); ++i) {
            EXPECT_EQ(topk[i].first, merged[i].first)
                << FamilyName(family) << " seed=" << seed << " TOPK rank "
                << i;
            EXPECT_NEAR(topk[i].second, merged[i].second, kIdentityTol);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-recovery equivalence (real SIGKILL at crashpoints)
// ---------------------------------------------------------------------------

#ifndef BURSTHIST_NO_FAULT

constexpr size_t kTortureShards = 2;
constexpr size_t kTortureN = 240;
constexpr int kClusterChildCompleted = 0;
constexpr int kClusterChildFailure = 41;

BurstEngineOptions<Pbe1> TortureClusterOptions() {
  return ExactOptions(/*universe=*/8);
}

DurabilityOptions TortureClusterDurability() {
  DurabilityOptions d;
  d.wal_segment_bytes = 4 << 10;
  d.sync_every_append = true;  // every acked record must survive
  return d;
}

std::vector<EventRecord> ClusterTortureWorkload(uint64_t seed) {
  return SortedWorkload(static_cast<StreamFamily>(seed % 4), 8, kTortureN,
                        seed);
}

// Child body: open (recover) the cluster and append the workload
// record by record, acking each accepted append — the crashpoint
// schedule kills the process somewhere inside the durability
// protocol. Runs in a forked child, so only async-signal-safe-ish
// plumbing: no gtest, exit codes only.
int RunClusterWorkload(Env* env, const std::string& dir, int ack_fd,
                       uint64_t seed) {
  const auto workload = ClusterTortureWorkload(seed);
  ClusterOptions copts;
  copts.shards = kTortureShards;
  copts.parallel_ingest = false;  // appends stay on this thread
  auto cluster = ClusterEngine<Pbe1>::Open(env, dir, TortureClusterOptions(),
                                           copts, TortureClusterDurability());
  if (!cluster.ok()) return kClusterChildFailure;

  // Resume past whatever recovery already holds: per shard, the
  // applied records are a prefix of the routed subsequence.
  const ShardRouter& router = cluster.value()->router();
  std::vector<size_t> have(kTortureShards);
  std::vector<size_t> done(kTortureShards, 0);
  for (size_t s = 0; s < kTortureShards; ++s) {
    have[s] = static_cast<size_t>(cluster.value()->WithShard(
        s, [](const auto& d) { return d.TotalCount(); }));
  }
  for (const auto& r : workload) {
    const size_t s = router.ShardOf(r.id);
    if (done[s] < have[s]) {
      ++done[s];
      continue;  // already durable from before the crash
    }
    // Cluster-level Append would refuse records behind the merged
    // watermark; per-shard resume is the documented recovery path.
    if (!cluster.value()
             ->WithShard(s, [&r](auto& d) { return d.Append(r.id, r.time); })
             .ok()) {
      return kClusterChildFailure;
    }
    ++done[s];
    if (ack_fd >= 0) torture::AckAppends(ack_fd, 1);
  }
  if (!cluster.value()->Sync().ok()) return kClusterChildFailure;
  return kClusterChildCompleted;
}

// Forks the cluster workload under a crashpoint schedule.
torture::ChildOutcome ForkClusterChild(const std::string& dir,
                                       const std::string& ack_path,
                                       const std::string& schedule,
                                       uint64_t seed) {
  ::unlink(ack_path.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto& sched = fault::FaultScheduler::Global();
    sched.Disarm();
    if (!schedule.empty() && !sched.LoadSchedule(schedule).ok()) {
      ::_exit(kClusterChildFailure);
    }
    const int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (ack_fd < 0) ::_exit(kClusterChildFailure);
    ::_exit(RunClusterWorkload(Env::Default(), dir, ack_fd, seed));
  }
  torture::ChildOutcome out;
  if (pid < 0) return out;
  int status = 0;
  ::waitpid(pid, &status, 0);
  out.killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  struct stat st{};
  if (::stat(ack_path.c_str(), &st) == 0) {
    out.acked = static_cast<size_t>(st.st_size);
  }
  return out;
}

TEST_F(ShardEquivalenceTest, RecoveryIsByteIdenticalPerShardAfterKills) {
  // Derive the kill matrix from a trace-mode recon of the REAL
  // cluster workload, never a hand-kept site list.
  const uint64_t recon_seed = 1;
  auto& sched = fault::FaultScheduler::Global();
  sched.Disarm();
  sched.EnableTrace(true);
  {
    const std::string recon_dir = NewDir("recon");
    const int rc = RunClusterWorkload(env_, recon_dir, -1, recon_seed);
    ASSERT_EQ(rc, kClusterChildCompleted);
  }
  auto sites = sched.ReachedSites();
  sched.Disarm();
  ASSERT_FALSE(sites.empty()) << "cluster workload reached no crashpoints";

  // Keep the fork matrix bounded: a handful of distinct sites, killed
  // early and mid-run.
  if (sites.size() > 5) sites.resize(5);
  size_t cycles = 0;
  for (const auto& [site, hits] : sites) {
    for (uint64_t hit : {uint64_t{1}, std::max<uint64_t>(1, hits / 2)}) {
      const uint64_t seed = recon_seed + cycles;
      const auto workload = ClusterTortureWorkload(seed);
      const std::string dir = NewDir("kill" + std::to_string(cycles));
      const std::string ack = dir + ".ack";
      const std::string schedule =
          site + "=kill@" + std::to_string(hit);
      const auto child = ForkClusterChild(dir, ack, schedule, seed);
      ASSERT_TRUE(child.killed || child.exit_code == kClusterChildCompleted)
          << schedule << " seed=" << seed
          << ": child failed outside the schedule, exit="
          << child.exit_code;

      // Recover: all shards must open, and each must be a byte-exact
      // reference prefix of its routed subsequence; jointly they must
      // cover every acknowledged record.
      ClusterOptions copts;
      copts.shards = kTortureShards;
      copts.parallel_ingest = false;
      auto cluster = ClusterEngine<Pbe1>::Open(
          env_, dir, TortureClusterOptions(), copts,
          TortureClusterDurability());
      ASSERT_TRUE(cluster.ok())
          << schedule << ": cluster recovery failed: "
          << cluster.status().ToString();
      const ShardRouter& router = cluster.value()->router();

      size_t recovered_total = 0;
      for (size_t s = 0; s < kTortureShards; ++s) {
        const auto routed = RoutedSubsequence(workload, router, s);
        const size_t k = static_cast<size_t>(cluster.value()->WithShard(
            s, [](const auto& d) { return d.TotalCount(); }));
        ASSERT_LE(k, routed.size()) << schedule << " " << ShardDirName(s);
        recovered_total += k;
        BurstEngine<Pbe1> reference(TortureClusterOptions());
        for (size_t i = 0; i < k; ++i) {
          ASSERT_TRUE(reference.Append(routed[i].id, routed[i].time).ok());
        }
        EXPECT_EQ(cluster.value()->WithShard(
                      s, [](const auto& d) { return EngineBytes(d.engine()); }),
                  EngineBytes(reference))
            << schedule << " seed=" << seed << " " << ShardDirName(s)
            << " recovered K=" << k
            << " not byte-identical to its reference prefix";
      }
      EXPECT_GE(recovered_total, child.acked)
          << schedule << " seed=" << seed << ": acknowledged records lost";

      // Converge: finish the workload per shard, checkpoint, and
      // verify the full references — then query equivalence against a
      // never-crashed single engine (collision-free grid).
      for (size_t s = 0; s < kTortureShards; ++s) {
        const auto routed = RoutedSubsequence(workload, router, s);
        for (size_t i = static_cast<size_t>(cluster.value()->WithShard(
                 s, [](const auto& d) { return d.TotalCount(); }));
             i < routed.size(); ++i) {
          const auto& r = routed[i];
          ASSERT_TRUE(cluster.value()
                          ->WithShard(s, [&r](auto& d) {
                            return d.Append(r.id, r.time);
                          })
                          .ok());
        }
      }
      ASSERT_TRUE(cluster.value()->Checkpoint().ok());

      BurstEngine<Pbe1> single(TortureClusterOptions());
      for (const auto& r : workload) {
        ASSERT_TRUE(single.Append(r.id, r.time).ok());
      }
      auto snap = cluster.value()->AcquireSnapshot();
      EXPECT_EQ(snap->total_count(), single.TotalCount());
      const Timestamp hi = single.Watermark();
      for (EventId e = 0; e < 8; ++e) {
        EXPECT_NEAR(snap->Point(e, hi, 2).value, single.PointQuery(e, hi, 2),
                    kIdentityTol)
            << schedule << " seed=" << seed << " post-converge e=" << e;
      }
      ++cycles;
    }
  }
  ASSERT_GT(cycles, 0u);
}

#else  // BURSTHIST_NO_FAULT

TEST_F(ShardEquivalenceTest, RecoveryIsByteIdenticalPerShardAfterKills) {
  GTEST_SKIP() << "built with BURSTHIST_NO_FAULT: crashpoints compile to "
                  "no-ops, nothing to torture";
}

#endif  // BURSTHIST_NO_FAULT

}  // namespace
}  // namespace test
}  // namespace bursthist
