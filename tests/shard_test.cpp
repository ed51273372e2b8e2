// Shard subsystem tests: router placement, the cluster topology
// manifest and layout rule, ClusterEngine open/append/scrub mechanics,
// a plain engine's directory reopened as a 1-shard cluster, the
// SHARDSTATS wire verb end-to-end over TCP, and ClusterEngine's follow
// mode: per-shard WAL-shipping replication with failover by promotion.
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
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/burst_engine.h"
#include "governor/resource_governor.h"
#include "recovery/fault_env.h"
#include "replication/replica_engine.h"
#include "replication/wal_shipper.h"
#include "server/ingest_server.h"
#include "server/wire.h"
#include "shard/cluster_engine.h"
#include "shard/cluster_manifest.h"
#include "shard/shard_router.h"
#include "test_util.h"
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

// The layout rule's refusals. Each mismatch would otherwise serve an
// empty cluster beside the directory's history and accept ADDs next
// to it.
TEST_F(ShardTest, LayoutMismatchIsRefused) {
  ClusterOptions two;
  two.shards = 2;
  // One shard over a cluster directory: a manifest means shard-NNN/.
  const std::string sharded = NewDir("layout_sharded");
  {
    auto cluster =
        ClusterEngine<Pbe1>::Open(env_, sharded, SmallOptions(), two);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    ASSERT_TRUE(cluster.value()->Append(1, 10).ok());
  }
  auto one = ClusterEngine<Pbe1>::Open(env_, sharded, SmallOptions());
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.status().code(), StatusCode::kFailedPrecondition)
      << one.status().ToString();
  // ... even when the manifest names one shard.
  const std::string one_manifest = NewDir("layout_one_manifest");
  ClusterManifest m;
  m.shard_count = 1;
  m.hash_seed = kDefaultShardHashSeed;
  ASSERT_TRUE(WriteClusterManifest(env_, one_manifest, m).ok());
  auto one_named =
      ClusterEngine<Pbe1>::Open(env_, one_manifest, SmallOptions());
  EXPECT_EQ(one_named.status().code(), StatusCode::kFailedPrecondition)
      << one_named.status().ToString();

  // Two shards over a plain directory that holds history.
  const std::string plain = NewDir("layout_plain");
  {
    auto durable = DurableBurstEngine<Pbe1>::Open(env_, plain, SmallOptions());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_TRUE(durable.value()->Append(1, 10).ok());
  }
  auto split = ClusterEngine<Pbe1>::Open(env_, plain, SmallOptions(), two);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kFailedPrecondition)
      << split.status().ToString();
  EXPECT_FALSE(env_->FileExists(ClusterManifestPath(plain)))
      << "a refused open must leave the directory as it was";
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

// Exact cells (every dyadic level direct-mapped), so events with the
// same history tie exactly.
BurstEngineOptions<Pbe1> TieOptions() {
  BurstEngineOptions<Pbe1> o = SmallOptions();
  o.grid.width = 16;
  return o;
}

// A directory in the layout a plain durable engine writes — WAL
// segments and a snapshot at the root, no manifest — reopens as a
// 1-shard cluster with the same STATS numbers and the same reply
// bytes, TOPK ties included, and the cluster adds no manifest and no
// shard subdirectory.
TEST_F(ShardTest, PlainLayoutReopensAsOneShardCluster) {
  const std::string dir = NewDir("plain_layout");
  {
    auto durable = DurableBurstEngine<Pbe1>::Open(env_, dir, TieOptions());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    for (Timestamp t = 0; t < 370; ++t) {
      ASSERT_TRUE(durable.value()->Append(t % 3, t).ok());
    }
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    // Four ids with one shared history, a burst: tied TOPK values.
    for (Timestamp t = 370; t < 400; ++t) {
      for (EventId e : {14, 3, 12, 9}) {
        ASSERT_TRUE(durable.value()->Append(e, t).ok());
      }
    }
  }
  const std::vector<std::string> lines = {
      "STATS",          "POINT 3 390 20",    "FREQ 1 0 399",
      "BTIME 12 1 20",  "BEVENT 390 0.5 20", "TOPK 390 4 20",
      "TOPK 390 2 20"};
  auto serve = [&lines](auto* engine) {
    server::BurstService<std::remove_pointer_t<decltype(engine)>> service(
        engine, server::BurstServiceOptions());
    bool close = false;
    return service.HandleLines(lines, &close);
  };
  std::string plain;
  {
    auto durable = DurableBurstEngine<Pbe1>::Open(env_, dir, TieOptions());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    plain = serve(durable.value().get());
  }
  EXPECT_NE(plain.find("TOPK 4 3:"), std::string::npos)
      << "tied ids must come back ascending: " << plain;

  auto cluster = ClusterEngine<Pbe1>::Open(env_, dir, TieOptions());
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  std::string served = serve(cluster.value().get());
  // STATS names the shard count; every other byte matches.
  const std::string shards_field = " shards=1";
  const size_t at = served.find(shards_field);
  ASSERT_NE(at, std::string::npos) << served;
  served.erase(at, shards_field.size());
  EXPECT_EQ(served, plain);
  EXPECT_EQ(cluster.value()->generation(), 1u);
  EXPECT_FALSE(env_->FileExists(ClusterManifestPath(dir)));
  EXPECT_FALSE(env_->FileExists(dir + "/" + ShardDirName(0)));
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
// Follow mode: per-shard replication + promotion
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

// A leader cluster shipping shard i's WAL on base_port + i, the port
// a follower's shard i dials.
class ShardReplicationTest : public ShardTest {
 protected:
  void TearDown() override {
    for (auto& s : shippers_) s->Stop();
    shippers_.clear();
    leader_.reset();
    ShardTest::TearDown();
  }

  // Opens the leader at `dir`, ingests `records` records
  // (t % 16 @ t) and ships every shard.
  void StartLeader(const std::string& dir, const ClusterOptions& copts,
                   Timestamp records) {
    auto leader = ClusterEngine<Pbe1>::Open(env_, dir, SmallOptions(), copts);
    ASSERT_TRUE(leader.ok()) << leader.status().ToString();
    leader_ = std::move(leader).value();
    for (Timestamp t = 0; t < records; ++t) {
      ASSERT_TRUE(leader_->Append(t % 16, t).ok());
    }
    base_port_ = Ship(leader_.get(), dir, copts.shards, &shippers_);
  }

  // Ships shard i of `cluster`, whose directory is `dir`, on
  // base + i, as serve does, and returns base. The base port is
  // ephemeral, so claiming base + i can race another process: retry
  // with a fresh base.
  uint16_t Ship(ClusterEngine<Pbe1>* cluster, const std::string& dir,
                size_t shards,
                std::vector<std::unique_ptr<repl::WalShipper>>* shippers) {
    uint16_t base = 0;
    for (int attempt = 0; attempt < 10 && shippers->size() != shards;
         ++attempt) {
      shippers->clear();
      base = 0;
      for (size_t i = 0; i < shards; ++i) {
        auto shipper = std::make_unique<repl::WalShipper>();
        Status st = shipper->Start(
            env_, ShardDir(dir, i, shards),
            FastShipperOptions(
                base == 0 ? 0 : static_cast<uint16_t>(base + i)),
            [cluster, i] {
              return cluster->WithShard(i, [](const auto& d) {
                return repl::LeaderStatus{d.wal_position(), d.Watermark()};
              });
            });
        if (!st.ok()) break;
        if (i == 0) base = shipper->port();
        shippers->push_back(std::move(shipper));
      }
    }
    EXPECT_EQ(shippers->size(), shards) << "could not claim adjacent ports";
    return base;
  }

  // Starts `follower` and waits until it applied `records` records,
  // running `each_poll` (if set) between polls.
  static void Converge(ClusterEngine<Pbe1>* follower, uint64_t records,
                       const std::function<void()>& each_poll = nullptr) {
    ASSERT_TRUE(follower->Start().ok());
    ASSERT_TRUE(WaitUntil(
        [&] {
          if (each_poll) each_poll();
          return follower->applied_records() == records;
        },
        kConvergeMs))
        << "applied " << follower->applied_records() << "/" << records
        << " last_error=" << follower->last_error().ToString();
    EXPECT_TRUE(follower->last_error().ok())
        << follower->last_error().ToString();
  }

  std::unique_ptr<ClusterEngine<Pbe1>> leader_;
  std::vector<std::unique_ptr<repl::WalShipper>> shippers_;
  uint16_t base_port_ = 0;
};

TEST_F(ShardReplicationTest, ClusterReplicationConvergesAndPromotes) {
  const std::string leader_dir = NewDir("repl_leader");
  const std::string follower_dir = NewDir("repl_follower");
  ClusterOptions copts;
  copts.shards = 2;
  constexpr Timestamp kRecords = 400;
  StartLeader(leader_dir, copts, kRecords);
  auto opened = ClusterEngine<Pbe1>::OpenFollower(
      env_, follower_dir, SmallOptions(), FastReplicaOptions(base_port_),
      copts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ClusterEngine<Pbe1>* follower = opened.value().get();
  Converge(follower, kRecords);

  // Every follower shard must be byte-identical to its leader shard.
  auto bytes = [](const auto& d) { return EngineBytes(d.engine()); };
  for (size_t i = 0; i < copts.shards; ++i) {
    EXPECT_EQ(follower->WithShard(i, bytes), leader_->WithShard(i, bytes))
        << ShardDirName(i) << " diverged";
  }

  // Per-shard stats report the replica side of the story.
  const auto stats = follower->ShardStats();
  ASSERT_EQ(stats.size(), copts.shards);
  uint64_t applied = 0;
  for (const auto& s : stats) {
    EXPECT_TRUE(s.has_lag);
    applied += s.applied;
  }
  EXPECT_EQ(applied, static_cast<uint64_t>(kRecords));

  // Failover: writes are refused until EVERY shard has promoted.
  EXPECT_TRUE(follower->follower());
  EXPECT_EQ(follower->Append(0, 1000).code(), StatusCode::kUnavailable);
  ASSERT_TRUE(follower->Promote().ok());
  EXPECT_FALSE(follower->follower());
  EXPECT_EQ(follower->Promote().code(), StatusCode::kFailedPrecondition)
      << "double promote must be refused";

  // The promoted cluster keeps the leader's global order: the history
  // reached t = 399 (event 15), so t = 398 is late even on a shard that
  // never saw 399.
  const ShardRouter& router = follower->router();
  EventId off = 0;
  while (router.ShardOf(off) == router.ShardOf(15)) ++off;
  EXPECT_EQ(follower->Append(off, 398).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(leader_->Append(off, 398).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(follower->Append(0, 1000).ok());
  EXPECT_EQ(follower->TotalCount(), static_cast<Count>(kRecords) + 1);
}

// A follower that re-ships what it applies (a cascade) while its
// governor probes and sheds: apply threads, shipper state callbacks
// and governor hooks touch the middle cluster's shards at once, each
// under the shard's mutex (run under the tsan label). The end of the
// cascade applies the leader's records, not the middle's degraded
// cells, so it converges to the leader's bytes.
TEST_F(ShardReplicationTest, CascadeConvergesWhileTheGovernorSheds) {
  ClusterOptions copts;
  copts.shards = 2;
  constexpr Timestamp kRecords = 400;
  StartLeader(NewDir("cascade_leader"), copts, kRecords);
  const std::string middle_dir = NewDir("cascade_middle");
  auto middle = ClusterEngine<Pbe1>::OpenFollower(
      env_, middle_dir, SmallOptions(), FastReplicaOptions(base_port_),
      copts);
  ASSERT_TRUE(middle.ok()) << middle.status().ToString();
  std::vector<std::unique_ptr<repl::WalShipper>> middle_shippers;
  const uint16_t middle_port =
      Ship(middle.value().get(), middle_dir, copts.shards, &middle_shippers);
  auto tail = ClusterEngine<Pbe1>::OpenFollower(
      env_, NewDir("cascade_tail"), SmallOptions(),
      FastReplicaOptions(middle_port), copts);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  // A 1-byte soft budget: every audit sheds every shard.
  ResourceGovernor governor({/*soft=*/1, /*hard=*/0});
  middle.value()->RegisterComponents(&governor);

  ASSERT_TRUE(middle.value()->Start().ok());
  Converge(tail.value().get(), kRecords, [&governor] { governor.Enforce(); });
  EXPECT_GT(governor.shed_rounds(), 0u);
  auto bytes = [](const auto& d) { return EngineBytes(d.engine()); };
  for (size_t i = 0; i < copts.shards; ++i) {
    EXPECT_EQ(tail.value()->WithShard(i, bytes), leader_->WithShard(i, bytes))
        << ShardDirName(i) << " diverged";
  }
}

// A promoted follower writes through the leader's batch path: one WAL
// write per shard's sub-batch, where a record-at-a-time path would
// issue one per record. Parameter: shard count.
class PromotedWriteTest : public ShardReplicationTest,
                          public ::testing::WithParamInterface<size_t> {};

TEST_P(PromotedWriteTest, OneWalWritePerShardPerBatch) {
  const std::string leader_dir = NewDir("promoted_leader");
  const std::string follower_dir = NewDir("promoted_follower");
  ClusterOptions copts;
  copts.shards = GetParam();
  constexpr Timestamp kRecords = 200;
  StartLeader(leader_dir, copts, kRecords);

  // One counting env per shard directory, chained.
  std::vector<std::unique_ptr<test::OneShardFaultEnv>> envs(copts.shards);
  Env* base = env_;
  for (size_t i = copts.shards; i-- > 0;) {
    envs[i] = std::make_unique<test::OneShardFaultEnv>(
        base, ShardDir(follower_dir, i, copts.shards) + "/");
    base = envs[i].get();
  }
  auto writes = [&envs] {
    uint64_t n = 0;
    for (const auto& e : envs) n += e->writes_issued();
    return n;
  };
  auto opened = ClusterEngine<Pbe1>::OpenFollower(
      base, follower_dir, SmallOptions(), FastReplicaOptions(base_port_),
      copts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ClusterEngine<Pbe1>* follower = opened.value().get();
  Converge(follower, kRecords);
  ASSERT_TRUE(follower->Promote().ok());

  std::vector<WeightedRecord> batch;
  for (Timestamp t = 0; t < 100; ++t) {
    batch.push_back({static_cast<EventId>(t % 16), 1000 + t, 1});
  }
  const uint64_t before = writes();
  ASSERT_TRUE(follower->AppendBatch(batch).ok());
  const uint64_t issued = writes() - before;
  EXPECT_GE(issued, 1u);
  EXPECT_LE(issued, copts.shards);
  EXPECT_EQ(follower->TotalCount(), static_cast<Count>(kRecords) + 100);
}

INSTANTIATE_TEST_SUITE_P(Shards, PromotedWriteTest,
                         ::testing::Values(size_t{1}, size_t{2}));

}  // namespace
}  // namespace shard
}  // namespace bursthist
