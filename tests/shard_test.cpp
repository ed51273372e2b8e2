// Shard subsystem tests: router placement, the cluster topology
// manifest, ClusterEngine open/append/scrub mechanics, the SHARDSTATS
// wire verb end-to-end over TCP, and per-shard WAL-shipping
// replication with failover by promotion.
//
// Equivalence against a single-shard engine (the correctness story)
// lives in tests/differential/shard_equivalence_test.cpp; this file
// covers the machinery around it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/burst_engine.h"
#include "recovery/fault_env.h"
#include "replication/replica_engine.h"
#include "replication/wal_shipper.h"
#include "server/ingest_server.h"
#include "server/wire.h"
#include "shard/cluster_engine.h"
#include "shard/cluster_manifest.h"
#include "shard/cluster_replica.h"
#include "shard/shard_router.h"
#include "util/env.h"
#include "util/serialize.h"

namespace bursthist {
namespace shard {
namespace {

BurstEngineOptions<Pbe1> SmallOptions(Timestamp lateness = 0) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 16;
  o.grid.depth = 2;
  o.grid.width = 8;
  o.cell.buffer_points = 32;
  o.cell.budget_points = 8;
  o.heavy_hitter_capacity = 4;
  o.max_lateness = lateness;
  return o;
}

DurabilityOptions TinySegments() {
  DurabilityOptions d;
  d.wal_segment_bytes = 1 << 10;
  return d;
}

std::vector<uint8_t> EngineBytes(const BurstEngine<Pbe1>& engine) {
  BurstEngine<Pbe1> finalized(engine);
  finalized.Finalize();
  BinaryWriter w;
  finalized.Serialize(&w);
  return w.bytes();
}

bool WaitUntil(const std::function<bool()>& done, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

// Generous wall-clock cap: CI runs these under sanitizers.
constexpr int kConvergeMs = 30000;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::Default(); }

  void TearDown() override {
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) RemoveTree(*it);
  }

  std::string NewDir(const std::string& tag) {
    std::string dir = testing::TempDir() + "/bursthist_shard_" + tag + "_" +
                      std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
                      std::to_string(dirs_.size());
    EXPECT_TRUE(env_->CreateDirIfMissing(dir).ok());
    dirs_.push_back(dir);
    return dir;
  }

  // Cluster directories nest one level (dir/shard-NNN/files).
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

  Env* env_ = nullptr;
  std::vector<std::string> dirs_;
};

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, PlacementIsDeterministicAndTotal) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  std::vector<size_t> hits(4, 0);
  for (EventId e = 0; e < 1024; ++e) {
    const size_t s = a.ShardOf(e);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, b.ShardOf(e)) << "placement must be a pure function";
    ++hits[s];
  }
  // Full-avalanche mix over 1024 ids: every shard must be populated
  // (a router that starves a shard would leave dead directories).
  for (size_t s = 0; s < hits.size(); ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never chosen";
  }
}

TEST(ShardRouterTest, SeedReHomesIds) {
  const ShardRouter a(8, /*seed=*/1);
  const ShardRouter b(8, /*seed=*/2);
  size_t moved = 0;
  for (EventId e = 0; e < 1024; ++e) {
    if (a.ShardOf(e) != b.ShardOf(e)) ++moved;
  }
  EXPECT_GT(moved, 0u) << "the seed must participate in placement";
}

TEST(ShardRouterTest, SingleShardShortCircuits) {
  const ShardRouter r(1);
  for (EventId e = 0; e < 64; ++e) EXPECT_EQ(r.ShardOf(e), 0u);
  EXPECT_EQ(ShardRouter(0).shards(), 1u) << "zero clamps to one";
}

TEST(ShardRouterTest, DirNamesAreZeroPadded) {
  EXPECT_EQ(ShardDirName(0), "shard-000");
  EXPECT_EQ(ShardDirName(7), "shard-007");
  EXPECT_EQ(ShardDirName(123), "shard-123");
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST_F(ShardTest, ManifestRoundTrips) {
  const std::string dir = NewDir("manifest");
  ClusterManifest m;
  m.shard_count = 5;
  m.hash_seed = 0xdeadbeefull;
  ASSERT_TRUE(WriteClusterManifest(env_, dir, m).ok());
  auto back = ReadClusterManifest(env_, dir);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().shard_count, 5u);
  EXPECT_EQ(back.value().hash_seed, 0xdeadbeefull);
}

TEST_F(ShardTest, TopologyMismatchIsRefused) {
  const std::string dir = NewDir("mismatch");
  ASSERT_TRUE(EnsureClusterTopology(env_, dir, 4, 7).ok());
  // Idempotent on a matching reopen.
  EXPECT_TRUE(EnsureClusterTopology(env_, dir, 4, 7).ok());
  // Different shard count, different seed: both refused.
  Status count = EnsureClusterTopology(env_, dir, 2, 7);
  EXPECT_EQ(count.code(), StatusCode::kFailedPrecondition)
      << count.ToString();
  EXPECT_NE(count.message().find("topology mismatch"), std::string::npos);
  Status seed = EnsureClusterTopology(env_, dir, 4, 8);
  EXPECT_EQ(seed.code(), StatusCode::kFailedPrecondition) << seed.ToString();
}

TEST_F(ShardTest, CorruptManifestIsRefused) {
  const std::string dir = NewDir("badmanifest");
  ASSERT_TRUE(EnsureClusterTopology(env_, dir, 3, 1).ok());
  // Flip one payload bit: the CRC frame must catch it.
  ASSERT_TRUE(FlipBit(env_, ClusterManifestPath(dir), 12, 3).ok());
  auto back = ReadClusterManifest(env_, dir);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
      << back.status().ToString();
}

// ---------------------------------------------------------------------------
// ClusterEngine mechanics
// ---------------------------------------------------------------------------

TEST_F(ShardTest, OpenCreatesTopologyAndSurvivesReopen) {
  const std::string dir = NewDir("cluster");
  ClusterOptions copts;
  copts.shards = 3;
  {
    auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(env_->FileExists(ClusterManifestPath(dir)));
      auto files = env_->ListDir(dir + "/" + ShardDirName(i));
      EXPECT_TRUE(files.ok()) << "missing " << ShardDirName(i);
    }
    for (EventId e = 0; e < 16; ++e) {
      ASSERT_TRUE(cluster.value()->Append(e, 10 + e).ok());
    }
    EXPECT_EQ(cluster.value()->TotalCount(), 16u);
    EXPECT_EQ(cluster.value()->Watermark(), 25);
    ASSERT_TRUE(cluster.value()->Checkpoint().ok());
  }
  // Matching reopen recovers everything.
  {
    auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    EXPECT_EQ(cluster.value()->TotalCount(), 16u);
    EXPECT_EQ(cluster.value()->Watermark(), 25);
    // Monotonicity resumes where the merged history ended.
    EXPECT_EQ(cluster.value()->Append(0, 5).code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(cluster.value()->Append(0, 25).ok());
  }
  // Mismatched reopen is refused before any shard is touched.
  ClusterOptions wrong = copts;
  wrong.shards = 2;
  auto refused = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), wrong);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
}

TEST_F(ShardTest, OpenIsAllShardsOrFail) {
  const std::string dir = NewDir("allorfail");
  ClusterOptions copts;
  copts.shards = 2;
  // Squat on shard-001's directory slot with a plain file: that shard
  // cannot open, so the WHOLE cluster must refuse (a cluster missing
  // one shard would silently drop that shard's id subset from every
  // answer).
  {
    auto f = env_->NewWritableFile(dir + "/" + ShardDirName(1));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
  ASSERT_FALSE(cluster.ok());
  EXPECT_NE(cluster.status().message().find("shard-001"), std::string::npos)
      << cluster.status().ToString();
}

TEST_F(ShardTest, ValidationMatchesSingleEngineSemantics) {
  const std::string dir = NewDir("validate");
  ClusterOptions copts;
  copts.shards = 2;
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  EXPECT_EQ(cluster.value()->Append(99, 1).code(),
            StatusCode::kInvalidArgument);

  // Batch validation stops at the deterministic global prefix: the
  // third record regresses, so exactly two records apply — regardless
  // of which shards they route to.
  std::vector<WeightedRecord> batch = {
      {1, 10, 1}, {2, 20, 1}, {3, 15, 1}, {4, 30, 1}};
  size_t applied = 0;
  Status st = cluster.value()->AppendBatch(batch, &applied);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(cluster.value()->TotalCount(), 2u);
  EXPECT_EQ(cluster.value()->Watermark(), 20);

  // An invalid id stops the prefix the same way.
  std::vector<WeightedRecord> bad = {{5, 40, 1}, {400, 41, 1}, {6, 42, 1}};
  applied = 0;
  st = cluster.value()->AppendBatch(bad, &applied);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(cluster.value()->TotalCount(), 3u);
}

TEST_F(ShardTest, LatenessWindowsArePerShard) {
  const std::string dir = NewDir("lateness");
  ClusterOptions copts;
  copts.shards = 2;
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir,
                                           SmallOptions(/*lateness=*/10),
                                           copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  // Two ids homed on different shards.
  const ShardRouter& router = cluster.value()->router();
  EventId a = 0;
  EventId b = 0;
  for (EventId e = 0; e < 16; ++e) {
    if (router.ShardOf(e) == 0) a = e;
    if (router.ShardOf(e) == 1) b = e;
  }
  ASSERT_NE(router.ShardOf(a), router.ShardOf(b));

  // Shard a's watermark races ahead; shard b has seen nothing, so a
  // record far behind the CLUSTER watermark is still acceptable — the
  // lateness window is per shard (each shard's re-order buffer only
  // has to cover its own history).
  ASSERT_TRUE(cluster.value()->Append(a, 100).ok());
  EXPECT_TRUE(cluster.value()->Append(b, 50).ok());
  // But each shard enforces its own window: b's watermark is now 50,
  // so 30 < 50 - 10 is refused.
  EXPECT_EQ(cluster.value()->Append(b, 30).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(cluster.value()->Append(b, 45).ok());

  // Batch pre-validation applies the same per-shard windows.
  std::vector<WeightedRecord> batch = {
      {a, 101, 1}, {b, 49, 1}, {b, 20, 1}, {a, 102, 1}};
  size_t applied = 0;
  Status st = cluster.value()->AppendBatch(batch, &applied);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_EQ(applied, 2u);
}

TEST_F(ShardTest, ScrubMergesAndPrefixesShardReports) {
  const std::string dir = NewDir("scrub");
  ClusterOptions copts;
  copts.shards = 2;
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts,
                                           TinySegments());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (Timestamp t = 0; t < 400; ++t) {
    ASSERT_TRUE(cluster.value()->Append(t % 16, t).ok());
  }

  // A clean cluster scrub aggregates per-shard counts.
  ScrubOptions sopts;
  sopts.quarantine = false;
  auto clean = cluster.value()->Scrub(sopts);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean.value().corrupt_files, 0u);
  EXPECT_GT(clean.value().wal_records_checked, 0u);

  // Flip a bit in a CLOSED WAL segment of shard-000 (the live tail
  // segment is legitimately skipped by the scrubber).
  auto files = env_->ListDir(dir + "/" + ShardDirName(0));
  ASSERT_TRUE(files.ok());
  std::vector<std::string> wals;
  for (const auto& n : files.value()) {
    if (n.rfind("wal-", 0) == 0) wals.push_back(n);
  }
  std::sort(wals.begin(), wals.end());
  ASSERT_GE(wals.size(), 2u) << "workload too small to rotate segments";
  const std::string victim = wals.front();
  ASSERT_TRUE(
      FlipBit(env_, dir + "/" + ShardDirName(0) + "/" + victim, 40, 2).ok());

  auto dirty = cluster.value()->Scrub(sopts);
  ASSERT_TRUE(dirty.ok()) << dirty.status().ToString();
  EXPECT_EQ(dirty.value().corrupt_files, 1u);
  ASSERT_FALSE(dirty.value().issues.empty());
  EXPECT_EQ(dirty.value().issues[0].file, ShardDirName(0) + "/" + victim)
      << "issue files must carry their shard prefix";
}

TEST_F(ShardTest, ShardStatsAggregateToClusterTotals) {
  const std::string dir = NewDir("stats");
  ClusterOptions copts;
  copts.shards = 3;
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  for (Timestamp t = 0; t < 200; ++t) {
    ASSERT_TRUE(cluster.value()->Append(t % 16, t).ok());
  }
  const auto stats = cluster.value()->ShardStats();
  ASSERT_EQ(stats.size(), 3u);
  Count total = 0;
  Timestamp watermark = 0;
  for (const auto& s : stats) {
    total += s.total;
    watermark = std::max(watermark, s.watermark);
    EXPECT_FALSE(s.has_lag) << "a leader reports no lag";
    EXPECT_GT(s.total, 0u) << "shard " << s.shard << " starved";
  }
  EXPECT_EQ(total, cluster.value()->TotalCount());
  EXPECT_EQ(watermark, cluster.value()->Watermark());
}

// ---------------------------------------------------------------------------
// SHARDSTATS over the wire
// ---------------------------------------------------------------------------

TEST_F(ShardTest, ShardStatsVerbEndToEnd) {
  const std::string dir = NewDir("serve");
  ClusterOptions copts;
  copts.shards = 2;
  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  server::IngestServer<ClusterEngine<Pbe1>> srv(cluster.value().get(),
                                                server::BurstServiceOptions());
  ASSERT_TRUE(srv.Start(server::TcpServerOptions()).ok());

  server::LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  auto round_trip = [&client](const std::string& line) {
    EXPECT_TRUE(client.SendLine(line).ok());
    auto reply = client.ReadLine();
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? reply.value() : std::string();
  };

  EXPECT_EQ(round_trip("ADD 1 10"), "OK");
  EXPECT_EQ(round_trip("ADD 2 20"), "OK");

  const std::string reply = round_trip("SHARDSTATS");
  EXPECT_EQ(reply.compare(0, 20, "SHARDSTATS shards=2 "), 0) << reply;
  EXPECT_NE(reply.find("| shard=0 total="), std::string::npos) << reply;
  EXPECT_NE(reply.find("| shard=1 total="), std::string::npos) << reply;
  EXPECT_NE(reply.find("wal="), std::string::npos) << reply;
  EXPECT_EQ(reply.find("lag="), std::string::npos)
      << "leader stats must not fake a lag field: " << reply;

  // STATS grows a cluster-only shards= field.
  const std::string stats = round_trip("STATS");
  EXPECT_NE(stats.find("shards=2"), std::string::npos) << stats;

  srv.Stop();
}

TEST_F(ShardTest, ShardStatsVerbRefusedOnPlainEngine) {
  const std::string dir = NewDir("plainserve");
  auto durable = DurableBurstEngine<Pbe1>::Open(env_, dir, SmallOptions());
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();

  server::IngestServer<DurableBurstEngine<Pbe1>> srv(
      durable.value().get(), server::BurstServiceOptions());
  ASSERT_TRUE(srv.Start(server::TcpServerOptions()).ok());

  server::LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv.port()).ok());
  ASSERT_TRUE(client.SendLine("SHARDSTATS").ok());
  auto reply = client.ReadLine();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().compare(0, 4, "ERR "), 0) << reply.value();
  EXPECT_NE(reply.value().find("FAILED_PRECONDITION"), std::string::npos)
      << reply.value();

  srv.Stop();
}

// ---------------------------------------------------------------------------
// Per-shard replication + promotion
// ---------------------------------------------------------------------------

repl::ReplicaOptions FastReplicaOptions(uint16_t port) {
  repl::ReplicaOptions r;
  r.leader_port = port;
  r.recv_timeout_ms = 10;
  r.dead_after_ms = 1000;
  r.backoff_initial_ms = 2;
  r.backoff_max_ms = 40;
  return r;
}

repl::WalShipperOptions FastShipperOptions(uint16_t port) {
  repl::WalShipperOptions s;
  s.port = port;
  s.poll_interval_ms = 2;
  s.heartbeat_interval_ms = 25;
  return s;
}

TEST_F(ShardTest, ClusterReplicationConvergesAndPromotes) {
  const std::string leader_dir = NewDir("repl_leader");
  const std::string follower_dir = NewDir("repl_follower");
  ClusterOptions copts;
  copts.shards = 2;
  // Serial ingest keeps every WAL mutation on the caller thread, so
  // one leader mutex covers the shipper state callbacks.
  copts.parallel_ingest = false;
  auto leader = ClusterEngine<Pbe1>::Open(env_, leader_dir, SmallOptions(),
                                          copts);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;

  // Shard i ships on base + i. The base port is ephemeral, so grabbing
  // base + 1 can race another process — retry with a fresh base.
  std::vector<std::unique_ptr<repl::WalShipper>> shippers;
  uint16_t base_port = 0;
  for (int attempt = 0; attempt < 10 && shippers.size() != copts.shards;
       ++attempt) {
    shippers.clear();
    base_port = 0;
    for (size_t i = 0; i < copts.shards; ++i) {
      auto shipper = std::make_unique<repl::WalShipper>();
      auto* sh = leader.value()->shard(i);
      Status st = shipper->Start(
          env_, leader_dir + "/" + ShardDirName(i),
          FastShipperOptions(base_port == 0
                                 ? 0
                                 : static_cast<uint16_t>(base_port + i)),
          [sh, &mu] {
            std::lock_guard<std::mutex> lock(mu);
            return repl::LeaderStatus{sh->wal_position(),
                                      sh->engine().Watermark()};
          });
      if (!st.ok()) break;
      if (i == 0) base_port = shipper->port();
      shippers.push_back(std::move(shipper));
    }
  }
  ASSERT_EQ(shippers.size(), copts.shards)
      << "could not claim two adjacent ports";

  constexpr size_t kRecords = 400;
  for (Timestamp t = 0; t < static_cast<Timestamp>(kRecords); ++t) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()->Append(t % 16, t).ok());
  }

  auto replica = ClusterReplica<Pbe1>::Open(env_, follower_dir, SmallOptions(),
                                            DurabilityOptions(),
                                            FastReplicaOptions(base_port),
                                            copts);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  auto* rep = replica.value().get();
  ASSERT_TRUE(rep->Start().ok());

  ASSERT_TRUE(WaitUntil([rep] { return rep->applied_records() == kRecords; },
                        kConvergeMs))
      << "applied " << rep->applied_records() << "/" << kRecords
      << " last_error=" << rep->last_error().ToString();
  EXPECT_TRUE(rep->last_error().ok()) << rep->last_error().ToString();

  // Every follower shard must be byte-identical to its leader shard.
  for (size_t i = 0; i < copts.shards; ++i) {
    std::vector<uint8_t> want;
    {
      std::lock_guard<std::mutex> lock(mu);
      want = EngineBytes(leader.value()->shard(i)->engine());
    }
    std::vector<uint8_t> got;
    {
      std::lock_guard<std::mutex> lock(*rep->shard(i)->write_mu());
      got = EngineBytes(rep->shard(i)->durable()->engine());
    }
    EXPECT_EQ(got, want) << ShardDirName(i) << " diverged";
  }

  // Per-shard stats report the replica side of the story.
  const auto stats = rep->ShardStats();
  ASSERT_EQ(stats.size(), copts.shards);
  uint64_t applied = 0;
  for (const auto& s : stats) {
    EXPECT_TRUE(s.has_lag);
    applied += s.applied;
  }
  EXPECT_EQ(applied, kRecords);

  // Failover: the serving layer keys write refusal off follower(),
  // which stays true until EVERY shard has promoted.
  EXPECT_TRUE(rep->follower());
  ASSERT_TRUE(rep->Promote().ok());
  EXPECT_FALSE(rep->follower());
  EXPECT_EQ(rep->Promote().code(), StatusCode::kFailedPrecondition)
      << "double promote must be refused";
  EXPECT_TRUE(rep->Append(0, 1000).ok());
  EXPECT_EQ(rep->TotalCount(), kRecords + 1);

  rep->Stop();
  for (auto& s : shippers) s->Stop();
}

}  // namespace
}  // namespace shard
}  // namespace bursthist
