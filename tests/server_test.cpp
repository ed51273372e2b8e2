// Serving front-end end-to-end: wire parsing, TCP framing, snapshot
// freshness, admission control, and — the point of the differential
// style — byte-identical agreement between server replies and a local
// ground-truth engine fed the same records through the same Format
// helpers.

#include "server/ingest_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/burst_engine.h"
#include "core/read_snapshot.h"
#include "governor/resource_governor.h"
#include "obs/metrics.h"
#include "recovery/durable_engine.h"
#include "recovery/fault_env.h"
#include "server/wire.h"
#include "shard/cluster_engine.h"
#include "shard/shard_router.h"
#include "test_util.h"
#include "util/env.h"
#include "util/serialize.h"

namespace bursthist {
namespace server {
namespace {

BurstEngineOptions<Pbe1> EngineOpts(EventId universe,
                                    Timestamp max_lateness = 0) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = universe;
  o.max_lateness = max_lateness;
  return o;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    dir_ = testing::TempDir() + "/bursthist_server_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(env_->CreateDirIfMissing(dir_).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    // Cluster directories nest one level (dir/shard-NNN/files).
    auto names = env_->ListDir(dir_);
    if (names.ok()) {
      for (const auto& n : names.value()) {
        const std::string path = dir_ + "/" + n;
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
    ::rmdir(dir_.c_str());
  }

  // Opens the durable engine and starts a server on an ephemeral port.
  void StartServer(const BurstEngineOptions<Pbe1>& engine_options,
                   const BurstServiceOptions& service_options =
                       BurstServiceOptions(),
                   const TcpServerOptions& tcp_options = TcpServerOptions()) {
    auto opened = DurableBurstEngine<Pbe1>::Open(env_, dir_, engine_options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    durable_ = std::move(opened).value();
    server_ = std::make_unique<IngestServer<DurableBurstEngine<Pbe1>>>(
        durable_.get(), service_options);
    ASSERT_TRUE(server_->Start(tcp_options).ok());
  }

  // One round trip on an established client.
  std::string RoundTrip(LineClient* client, const std::string& line) {
    EXPECT_TRUE(client->SendLine(line).ok());
    auto reply = client->ReadLine();
    EXPECT_TRUE(reply.ok()) << reply.status().message();
    return reply.ok() ? reply.value() : std::string();
  }

  LineClient Connect() {
    LineClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  Env* env_ = nullptr;
  std::string dir_;
  std::unique_ptr<DurableBurstEngine<Pbe1>> durable_;
  std::unique_ptr<IngestServer<DurableBurstEngine<Pbe1>>> server_;
};

TEST_F(ServerTest, PingStatsQuit) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
  EXPECT_EQ(RoundTrip(&client, "ADD 1 10"), "OK");
  const std::string stats = RoundTrip(&client, "STATS");
  EXPECT_EQ(stats.compare(0, 6, "STATS "), 0) << stats;
  EXPECT_NE(stats.find("accepted=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("watermark=10"), std::string::npos) << stats;
  EXPECT_EQ(RoundTrip(&client, "QUIT"), "BYE");
  // The server honors *close: the next read sees EOF.
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
}

// The differential heart of the suite: every query type answered over
// the wire must equal — byte for byte — the reply a local engine fed
// the identical records would produce through the same formatters.
TEST_F(ServerTest, RepliesMatchGroundTruthEngine) {
  const EventId kUniverse = 6;
  StartServer(EngineOpts(kUniverse));
  BurstEngine<Pbe1> truth(EngineOpts(kUniverse));

  LineClient client = Connect();
  Rng rng(test::CaseSeed(81));
  Timestamp t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    const EventId e = static_cast<EventId>(rng.NextBelow(kUniverse));
    const Count c = 1 + static_cast<Count>(rng.NextBelow(2));
    ASSERT_EQ(RoundTrip(&client, "ADD " + std::to_string(e) + " " +
                                     std::to_string(t) + " " +
                                     std::to_string(c)),
              "OK");
    ASSERT_TRUE(truth.Append(e, t, c).ok());
  }

  auto snap = truth.AcquireSnapshot();
  const Timestamp w = snap->watermark();
  for (EventId e = 0; e < kUniverse; ++e) {
    for (Timestamp tau : {1, 4, 16}) {
      const auto point = snap->Point(e, w, tau);
      EXPECT_EQ(RoundTrip(&client, "POINT " + std::to_string(e) + " " +
                                       std::to_string(w) + " " +
                                       std::to_string(tau)),
                FormatValue(point.value, point.watermark, point.bound));
      const auto times = snap->BurstyTime(e, 2.0, tau);
      EXPECT_EQ(RoundTrip(&client, "BTIME " + std::to_string(e) + " 2 " +
                                       std::to_string(tau)),
                FormatIntervals(times.value, times.watermark, times.bound));
    }
    const auto freq = snap->Frequency(e, w / 4, w / 2);
    EXPECT_EQ(RoundTrip(&client, "FREQ " + std::to_string(e) + " " +
                                     std::to_string(w / 4) + " " +
                                     std::to_string(w / 2)),
              FormatValue(freq.value, freq.watermark, freq.bound));
  }
  for (Timestamp tau : {1, 4, 16}) {
    const auto events = snap->BurstyEvent(w, 2.0, tau);
    EXPECT_EQ(RoundTrip(&client, "BEVENT " + std::to_string(w) + " 2 " +
                                     std::to_string(tau)),
              FormatEvents(events.value, events.watermark, events.bound));
    const auto topk = snap->TopK(w, 3, tau);
    EXPECT_EQ(RoundTrip(&client, "TOPK " + std::to_string(w) + " 3 " +
                                     std::to_string(tau)),
              FormatTopK(topk.value, topk.watermark, topk.bound));
  }
}

// The bug this PR fixes, end to end: with a lateness window every
// record sits in the re-order buffer, and the served answers must
// still cover them.
TEST_F(ServerTest, ServesBufferedRecordsUnderLateness) {
  auto options = EngineOpts(4, /*max_lateness=*/100);
  options.cell.buffer_points = 256;
  options.cell.budget_points = 256;  // lossless: the POINT value is exact
  StartServer(options);
  BurstEngine<Pbe1> truth(options);

  LineClient client = Connect();
  for (Timestamp t = 10; t < 20; ++t) {
    ASSERT_EQ(RoundTrip(&client, "ADD 1 " + std::to_string(t)), "OK");
    ASSERT_TRUE(truth.Append(1, t).ok());
  }
  // Everything is buffered (watermark 19, lateness 100)...
  EXPECT_EQ(durable_->engine().TotalCount(), 0u);
  // ...yet the served POINT answer equals the ground truth's.
  auto snap = truth.AcquireSnapshot();
  const auto ans = snap->Point(1, 15, 5);
  EXPECT_GT(ans.value, 0.0);
  EXPECT_EQ(RoundTrip(&client, "POINT 1 15 5"),
            FormatValue(ans.value, ans.watermark, ans.bound));
}

// Each ADD must be visible to the very next query
// (snapshot_staleness_appends = 1 by default).
TEST_F(ServerTest, QueriesAreFreshAfterEveryAdd) {
  StartServer(EngineOpts(4));
  BurstEngine<Pbe1> truth(EngineOpts(4));
  LineClient client = Connect();
  for (Timestamp t = 0; t < 20; ++t) {
    ASSERT_EQ(RoundTrip(&client, "ADD 0 " + std::to_string(t)), "OK");
    ASSERT_TRUE(truth.Append(0, t).ok());
    auto snap = truth.AcquireSnapshot();
    const auto ans = snap->Frequency(0, 0, t);
    EXPECT_EQ(RoundTrip(&client,
                        "FREQ 0 0 " + std::to_string(t)),
              FormatValue(ans.value, ans.watermark, ans.bound))
        << "t=" << t;
  }
}

TEST_F(ServerTest, ErrorReplies) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  EXPECT_EQ(RoundTrip(&client, "FROB 1 2"),
            "ERR INVALID_ARGUMENT unknown verb: FROB");
  EXPECT_EQ(RoundTrip(&client, "ADD"), "ERR INVALID_ARGUMENT usage: ADD <e> <t> [count]");
  EXPECT_EQ(RoundTrip(&client, "ADD x 5"),
            "ERR INVALID_ARGUMENT ADD: malformed id or timestamp");
  EXPECT_EQ(RoundTrip(&client, "ADD 1 5 0"),
            "ERR INVALID_ARGUMENT ADD: count must be a positive integer");
  // Event id out of the configured universe.
  EXPECT_EQ(RoundTrip(&client, "POINT 99 5 1"),
            "ERR INVALID_ARGUMENT event id exceeds universe size");
  EXPECT_EQ(RoundTrip(&client, "BTIME 1 0 4"),
            "ERR INVALID_ARGUMENT theta must be positive");
  EXPECT_EQ(RoundTrip(&client, "BEVENT 5 -1 4"),
            "ERR INVALID_ARGUMENT theta must be positive");
  EXPECT_EQ(RoundTrip(&client, "POINT 1 5 -1"),
            "ERR INVALID_ARGUMENT tau must be >= 0");
  // Parse errors never kill the connection.
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
}

TEST_F(ServerTest, OverlongLineIsRejected) {
  TcpServerOptions tcp;
  tcp.max_line_bytes = 64;
  StartServer(EngineOpts(4), BurstServiceOptions(), tcp);
  LineClient client = Connect();
  const std::string reply =
      RoundTrip(&client, "ADD 1 " + std::string(200, '9'));
  EXPECT_EQ(reply.compare(0, 20, "ERR INVALID_ARGUMENT"), 0) << reply;
}

TEST_F(ServerTest, MetricsVerbStreamsUntilEnd) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  ASSERT_EQ(RoundTrip(&client, "ADD 2 7"), "OK");
  ASSERT_EQ(RoundTrip(&client, "POINT 2 7 1").compare(0, 6, "VALUE "), 0);
  ASSERT_TRUE(client.SendLine("METRICS").ok());
  bool saw_requests_metric = false;
  for (;;) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().message();
    if (line.value() == "END") break;
    if (line.value().find("bursthist_server_requests_total") !=
        std::string::npos) {
      saw_requests_metric = true;
    }
  }
#ifndef BURSTHIST_NO_METRICS
  EXPECT_TRUE(saw_requests_metric);
#endif
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
}

TEST_F(ServerTest, HttpMetricsEndpoint) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  ASSERT_TRUE(client.SendLine("GET /metrics HTTP/1.0").ok());
  auto status_line = client.ReadLine();
  ASSERT_TRUE(status_line.ok());
  EXPECT_EQ(status_line.value(), "HTTP/1.0 200 OK");
  bool saw_content_type = false;
  for (;;) {
    auto line = client.ReadLine();
    if (!line.ok()) break;  // server half-closes after the body
    if (line.value().find("Content-Type: text/plain") != std::string::npos) {
      saw_content_type = true;
    }
  }
  EXPECT_TRUE(saw_content_type);

  LineClient other = Connect();
  ASSERT_TRUE(other.SendLine("GET /nope HTTP/1.0").ok());
  auto not_found = other.ReadLine();
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found.value(), "HTTP/1.0 404 Not Found");
}

// Admission control: with a saturated byte budget the governor walks
// its degradation ladder and then refuses ADDs — from the very first
// one, since a fresh governor audits before it admits — but queries
// keep being served.
TEST_F(ServerTest, GovernorRefusesWritesButServesReads) {
  ResourceGovernor governor({/*soft=*/1, /*hard=*/1});
  BurstServiceOptions service;
  service.governor = &governor;
  StartServer(EngineOpts(4), service);
  governor.RegisterComponent(
      "engine", [this] { return durable_->engine().MemoryUsage(); },
      [this](double factor) { durable_->engine().Degrade(factor); });

  LineClient client = Connect();
  const std::string first = RoundTrip(&client, "ADD 1 0");
  EXPECT_EQ(first.compare(0, 22, "ERR RESOURCE_EXHAUSTED"), 0) << first;
  // Reads stay up under overload.
  EXPECT_EQ(RoundTrip(&client, "POINT 1 4 1").compare(0, 6, "VALUE "), 0);
  const std::string stats = RoundTrip(&client, "STATS");
  EXPECT_NE(stats.find("level="), std::string::npos) << stats;
}

// "STATS total=<a> buffered=<b> ..." -> a + b: every record the engine
// holds, indexed or still in the re-order buffer.
Count StoredRecords(const std::string& stats) {
  const size_t total = stats.find("total=");
  const size_t buffered = stats.find("buffered=");
  EXPECT_NE(total, std::string::npos) << stats;
  EXPECT_NE(buffered, std::string::npos) << stats;
  if (total == std::string::npos || buffered == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + total + 6, nullptr, 10) +
         std::strtoull(stats.c_str() + buffered + 9, nullptr, 10);
}

// Batch admission on the served path: a saturated governor refuses a
// whole pipelined chunk of ADDs — one ERR RESOURCE_EXHAUSTED per
// record — and nothing reaches the engine.
template <typename EngineT>
void ExpectSaturatedChunkRefused(EngineT* engine, ResourceGovernor* governor) {
  // Records already held, so the unchanged count below is not zero.
  for (Timestamp t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine->Append(static_cast<EventId>(t % 4), t).ok());
  }
  BurstServiceOptions options;
  options.governor = governor;
  BurstService<EngineT> service(engine, options);
  bool close = false;
  const Count before = StoredRecords(service.HandleLines({"STATS"}, &close));
  EXPECT_EQ(before, 8u);

  std::vector<std::string> chunk;
  for (Timestamp t = 8; t < 24; ++t) {
    chunk.push_back("ADD " + std::to_string(t % 4) + " " + std::to_string(t));
  }
  const std::string replies = service.HandleLines(chunk, &close);
  size_t refused = 0;
  for (size_t pos = 0, end; (end = replies.find('\n', pos)) != std::string::npos;
       pos = end + 1) {
    const std::string line = replies.substr(pos, end - pos);
    EXPECT_EQ(line.compare(0, 22, "ERR RESOURCE_EXHAUSTED"), 0) << line;
    ++refused;
  }
  EXPECT_EQ(refused, chunk.size()) << replies;
  EXPECT_EQ(StoredRecords(service.HandleLines({"STATS"}, &close)), before);
  EXPECT_EQ(governor->level(), DegradationLevel::kSaturated);
}

TEST_F(ServerTest, SaturatedGovernorRefusesWholeAddChunk) {
  auto opened = DurableBurstEngine<Pbe1>::Open(env_, dir_, EngineOpts(4));
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto* engine = &opened.value()->engine();
  ResourceGovernor governor({/*soft=*/1, /*hard=*/1});
  governor.RegisterComponent(
      "engine", [engine] { return engine->MemoryUsage(); },
      [engine](double factor) { engine->Degrade(factor); });
  ExpectSaturatedChunkRefused(opened.value().get(), &governor);
}

// The same on serve --shards 2's shape: one governed component per shard.
TEST_F(ServerTest, SaturatedGovernorRefusesWholeAddChunkOnCluster) {
  shard::ClusterOptions copts;
  copts.shards = 2;
  auto cluster =
      shard::ClusterEngine<Pbe1>::Open(env_, dir_, EngineOpts(4), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().message();
  ResourceGovernor governor({/*soft=*/1, /*hard=*/1});
  cluster.value()->RegisterComponents(&governor);
  ExpectSaturatedChunkRefused(cluster.value().get(), &governor);
}

using test::OneShardFaultEnv;

// One shard's failed batch write on serve --shards 2's path: six ADDs
// alternate shards at t = 10..15 while shard-001's next write fails
// once. Every record answered OK survives a restart, and no record is
// applied twice (the healthy shard's records are not resubmitted).
// Parameters: parallel shard dispatch, max_lateness.
class ShardWriteFailureTest
    : public ServerTest,
      public ::testing::WithParamInterface<std::tuple<bool, Timestamp>> {};

TEST_P(ShardWriteFailureTest, AcksOnlyRecordsEveryShardApplied) {
  const auto [parallel, lateness] = GetParam();
  // Exact cells (a direct-mapped grid, no compression) so FREQ e t t
  // counts the records stored at (e, t).
  BurstEngineOptions<Pbe1> options = EngineOpts(8, lateness);
  options.grid.depth = 1;
  options.grid.width = 8;
  options.grid.identity_hash = true;
  options.cell.buffer_points = 16;
  options.cell.budget_points = 16;
  shard::ClusterOptions copts;
  copts.shards = 2;
  copts.parallel_ingest = parallel;
  const shard::ShardRouter router(copts.shards, copts.hash_seed);
  EventId home[2] = {0, 0};  // an id on each shard
  for (EventId e = 8; e-- > 0;) home[router.ShardOf(e)] = e;
  ASSERT_NE(router.ShardOf(home[0]), router.ShardOf(home[1]));
  std::vector<WeightedRecord> adds;
  std::vector<std::string> chunk;
  for (Timestamp t = 10; t < 16; ++t) {
    adds.push_back({home[t % 2], t, 1});
    chunk.push_back("ADD " + std::to_string(home[t % 2]) + " " +
                    std::to_string(t));
  }

  std::vector<std::string> replies;
  {
    OneShardFaultEnv fault(env_, "/" + shard::ShardDirName(1) + "/");
    auto cluster =
        shard::ClusterEngine<Pbe1>::Open(&fault, dir_, options, copts);
    ASSERT_TRUE(cluster.ok()) << cluster.status().message();
    fault.FailWritesForNext(1);
    BurstService<shard::ClusterEngine<Pbe1>> service(cluster.value().get(),
                                                     BurstServiceOptions());
    bool close = false;
    std::istringstream lines(service.HandleLines(chunk, &close));
    for (std::string line; std::getline(lines, line);) replies.push_back(line);
  }
  ASSERT_EQ(replies.size(), chunk.size());
  EXPECT_EQ(replies[0], "OK");
  EXPECT_EQ(replies[1].compare(0, 13, "ERR I_O_ERROR"), 0) << replies[1];

  auto restarted = shard::ClusterEngine<Pbe1>::Open(env_, dir_, options, copts);
  ASSERT_TRUE(restarted.ok()) << restarted.status().message();
  auto snap = restarted.value()->AcquireSnapshot();
  for (size_t i = 0; i < adds.size(); ++i) {
    const double stored =
        snap->Frequency(adds[i].id, adds[i].time, adds[i].time).value;
    EXPECT_LE(stored, 1.0) << chunk[i] << " applied twice";
    if (replies[i] == "OK") {
      EXPECT_EQ(stored, 1.0) << chunk[i] << " acked but not stored";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DispatchAndLateness, ShardWriteFailureTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(Timestamp{0},
                                                              Timestamp{5})));

constexpr Timestamp kChunkLateness = 5;

// Serves one pipelined chunk of 100 ADDs, out of order inside a
// lateness-5 window, ids spread over 16 events, and checks every ADD
// was answered OK.
template <typename EngineT>
void ServeLateAddChunk(EngineT* engine) {
  std::vector<std::string> chunk;
  for (Timestamp i = 0; i < 100; ++i) {
    const Timestamp t = 100 + i - 3 * (i % 2);
    chunk.push_back("ADD " + std::to_string(i % 16) + " " + std::to_string(t));
  }
  BurstService<EngineT> service(engine, BurstServiceOptions());
  bool close = false;
  std::istringstream replies(service.HandleLines(chunk, &close));
  size_t ok = 0;
  for (std::string line; std::getline(replies, line);) ok += line == "OK";
  EXPECT_EQ(ok, chunk.size());
}

// A buffered (lateness > 0) batch reaches the WAL the way an in-order
// one does: its whole admitted prefix in one write.
TEST_F(ServerTest, LateAddChunkIsOneWalWrite) {
  FaultInjectionEnv fault(env_);
  auto opened = DurableBurstEngine<Pbe1>::Open(&fault, dir_,
                                               EngineOpts(16, kChunkLateness));
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const uint64_t before = fault.writes_issued();
  ServeLateAddChunk(opened.value().get());
  EXPECT_EQ(fault.writes_issued() - before, 1u);
}

// The same chunk on serve --shards 2's shape, with shard dispatch
// serial or parallel: at most one write per shard's sub-batch. Each
// shard's files go through their own FaultInjectionEnv, so parallel
// shard workers never share a write counter.
class LateAddClusterTest : public ServerTest,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(LateAddClusterTest, ChunkIsOneWalWritePerShard) {
  shard::ClusterOptions copts;
  copts.shards = 2;
  copts.parallel_ingest = GetParam();
  OneShardFaultEnv shard1(env_, "/" + shard::ShardDirName(1) + "/");
  OneShardFaultEnv shard0(&shard1, "/" + shard::ShardDirName(0) + "/");
  auto cluster = shard::ClusterEngine<Pbe1>::Open(
      &shard0, dir_, EngineOpts(16, kChunkLateness), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().message();
  const uint64_t before = shard0.writes_issued() + shard1.writes_issued();
  ServeLateAddChunk(cluster.value().get());
  const uint64_t writes =
      shard0.writes_issued() + shard1.writes_issued() - before;
  EXPECT_GE(writes, 1u);
  EXPECT_LE(writes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Dispatch, LateAddClusterTest, ::testing::Bool());

// Many clients interleaving writes and reads: the tsan-facing test.
// Every ADD must be acknowledged, every query must parse as a reply,
// and the final accepted count must equal the sum of acknowledged
// ADDs.
TEST_F(ServerTest, ConcurrentClients) {
  constexpr int kClients = 6;
  constexpr int kAddsPerClient = 60;
  // Each client stamps its own t = 0..59 clock; the shared watermark
  // needs a lateness window covering the full spread so interleaved
  // clients never collide with each other's progress.
  StartServer(EngineOpts(8, /*max_lateness=*/1000));

  std::atomic<int> acknowledged{0};
  std::vector<std::thread> threads;
  const uint16_t port = server_->port();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      for (int i = 0; i < kAddsPerClient; ++i) {
        const Timestamp t = static_cast<Timestamp>(i);
        const EventId e = static_cast<EventId>(c % 8);
        ASSERT_TRUE(client
                        .SendLine("ADD " + std::to_string(e) + " " +
                                  std::to_string(t))
                        .ok());
        auto reply = client.ReadLine();
        ASSERT_TRUE(reply.ok());
        if (reply.value() == "OK") acknowledged.fetch_add(1);
        if (i % 5 == 0) {
          ASSERT_TRUE(client
                          .SendLine("POINT " + std::to_string(e) + " " +
                                    std::to_string(t) + " 4")
                          .ok());
          auto ans = client.ReadLine();
          ASSERT_TRUE(ans.ok());
          EXPECT_EQ(ans.value().compare(0, 6, "VALUE "), 0) << ans.value();
          EXPECT_NE(ans.value().find("watermark="), std::string::npos);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(acknowledged.load(), kClients * kAddsPerClient);

  LineClient client = Connect();
  const std::string stats = RoundTrip(&client, "STATS");
  EXPECT_NE(stats.find("accepted=" +
                       std::to_string(kClients * kAddsPerClient)),
            std::string::npos)
      << stats;
  // Every accepted record is either ingested or still buffered behind
  // the lateness window — none vanished.
  unsigned long long total = 0, buffered = 0;
  ASSERT_EQ(std::sscanf(stats.c_str(), "STATS total=%llu buffered=%llu",
                        &total, &buffered),
            2)
      << stats;
  EXPECT_EQ(total + buffered,
            static_cast<unsigned long long>(kClients * kAddsPerClient));
}

// Concurrent pipelining clients through the write mutex, end to end.
// N clients pipeline their ADDs (many lines per TCP send, so the
// server applies each chunk as one batch on its connection thread),
// and the resulting engine must be BYTE-identical to a ground-truth
// engine fed the same multiset of records serially. The big lateness
// window keeps every record in the re-order buffer, whose serialized
// dump is canonical (total-ordered) — so any interleaving of client
// batches must converge on the same bytes if and only if no record was
// lost, duplicated, or corrupted between the socket and the engine.
TEST_F(ServerTest, ConcurrentBatchedClientsMatchGroundTruthBytes) {
  constexpr int kClients = 5;
  constexpr int kAddsPerClient = 120;
  constexpr int kPipelineDepth = 16;  // ADD lines per TCP send
  const auto options = EngineOpts(8, /*max_lateness=*/1000000);
  StartServer(options);

  std::vector<std::thread> threads;
  const uint16_t port = server_->port();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      int sent = 0;
      while (sent < kAddsPerClient) {
        const int n = std::min(kPipelineDepth, kAddsPerClient - sent);
        // One send carrying n ADD lines: the server's recv sees them
        // together and applies them as one batch.
        std::string pipeline;
        for (int i = 0; i < n; ++i) {
          const int k = sent + i;
          const EventId e = static_cast<EventId>((c * 3 + k) % 8);
          const Timestamp t = static_cast<Timestamp>(c * 1000 + k);
          const Count count = static_cast<Count>(1 + k % 3);
          pipeline += "ADD " + std::to_string(e) + " " + std::to_string(t) +
                      " " + std::to_string(count);
          if (i + 1 < n) pipeline += "\n";
        }
        ASSERT_TRUE(client.SendLine(pipeline).ok());
        for (int i = 0; i < n; ++i) {
          auto reply = client.ReadLine();
          ASSERT_TRUE(reply.ok()) << reply.status().message();
          ASSERT_EQ(reply.value(), "OK");
        }
        sent += n;
      }
    });
  }
  for (auto& th : threads) th.join();

  // Ground truth: the same records, appended serially in client-major
  // order. The reorder buffer's canonical total order erases the
  // arrival interleaving on both sides.
  BurstEngine<Pbe1> truth(options);
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < kAddsPerClient; ++k) {
      ASSERT_TRUE(truth
                      .Append(static_cast<EventId>((c * 3 + k) % 8),
                              static_cast<Timestamp>(c * 1000 + k),
                              static_cast<Count>(1 + k % 3))
                      .ok());
    }
  }
  BinaryWriter server_bytes;
  durable_->engine().Serialize(&server_bytes);
  BinaryWriter truth_bytes;
  truth.Serialize(&truth_bytes);
  EXPECT_EQ(server_bytes.bytes(), truth_bytes.bytes());
}

// The " watermark=<w>" stamp of one reply line.
std::string WatermarkOf(const std::string& reply) {
  const size_t at = reply.find("watermark=");
  if (at == std::string::npos) return std::string();
  return reply.substr(at, reply.find(' ', at) - at);
}

// Freshness is checked once per run of queries: a 5-query chunk
// handled while another connection keeps ingesting captures ONE view
// (every query after the first finds the view at or past the run's
// floor) and answers all five from it. The history is long enough
// that the first query's seal takes a while, so the ingest thread is
// well past the view by the second query.
TEST_F(ServerTest, QueryRunCapturesOnceWhileIngestContinues) {
  constexpr Timestamp kHistory = 20000;
  StartServer(EngineOpts(8, /*max_lateness=*/16));
  BurstService<DurableBurstEngine<Pbe1>>& service = server_->service();
  auto add_lines = [](Timestamp from, Timestamp to) {
    std::vector<std::string> lines;
    for (Timestamp t = from; t < to; ++t) {
      lines.push_back("ADD " + std::to_string(t % 8) + " " +
                      std::to_string(t));
    }
    return lines;
  };
  bool close = false;
  for (Timestamp t = 0; t < kHistory; t += 1000) {
    (void)service.HandleLines(add_lines(t, t + 1000), &close);
  }
  // Publish a view, so the chunk below starts from a stale one rather
  // than from an empty slot.
  ASSERT_EQ(service.HandleLines({"POINT 3 100 4"}, &close).compare(0, 6,
                                                                   "VALUE "),
            0);

  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    bool c = false;
    for (Timestamp t = kHistory; !stop.load(std::memory_order_acquire);
         t += 16) {
      const std::string replies = service.HandleLines(add_lines(t, t + 16), &c);
      ASSERT_EQ(replies.find("ERR"), std::string::npos) << replies;
    }
  });
  while (service.accepted() < kHistory + 200) std::this_thread::yield();

  const std::vector<std::string> queries = {
      "POINT 3 100 4", "FREQ 3 0 100", "BTIME 3 2 4", "BEVENT 100 2 4",
      "TOPK 100 3 4"};
#ifndef BURSTHIST_NO_METRICS
  obs::Counter& acquired = obs::GetCounter(obs::kEngineReadSnapshotsTotal);
  const uint64_t acquired_before = acquired.Value();
#endif
  const std::string replies = service.HandleLines(queries, &close);
#ifndef BURSTHIST_NO_METRICS
  EXPECT_EQ(acquired.Value(), acquired_before + 1)
      << "one query run captured more than one view";
#endif
  stop.store(true, std::memory_order_release);
  ingest.join();

  std::vector<std::string> lines;
  for (size_t pos = 0; pos < replies.size();) {
    const size_t end = replies.find('\n', pos);
    lines.push_back(replies.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_EQ(lines.size(), queries.size()) << replies;
  const std::string watermark = WatermarkOf(lines.front());
  ASSERT_FALSE(watermark.empty()) << lines.front();
  for (const std::string& line : lines) {
    EXPECT_NE(line.compare(0, 4, "ERR "), 0) << line;
    EXPECT_EQ(WatermarkOf(line), watermark) << line;
  }
}

// Wire-level unit checks that need no server.
// A raw blocking socket the tests can fragment at will — LineClient
// deliberately hides framing, which is exactly what these tests need
// to control.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  // Sends the bytes one at a time, with a tiny pause every few bytes
  // so the server really does see split reads across its LineBuffer.
  bool SendFragmented(const std::string& data) {
    for (size_t i = 0; i < data.size(); ++i) {
      if (::send(fd_, data.data() + i, 1, MSG_NOSIGNAL) != 1) return false;
      if (i % 3 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }

  // Reads until `lines` full lines arrived, in 1-byte recv calls.
  std::vector<std::string> ReadLinesTiny(size_t lines) {
    std::vector<std::string> out;
    std::string current;
    char b = 0;
    while (out.size() < lines && ::recv(fd_, &b, 1, 0) == 1) {
      if (b == '\n') {
        out.push_back(current);
        current.clear();
      } else {
        current.push_back(b);
      }
    }
    return out;
  }

 private:
  int fd_ = -1;
};

// Satellite: the wire protocol must be immune to arbitrary TCP
// fragmentation — commands trickling in byte by byte, replies read
// back one byte at a time, pipelined lines split mid-token.
TEST_F(ServerTest, FragmentedWireIo) {
  StartServer(EngineOpts(4));
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.SendFragmented("PING\nADD 1 10\nADD 1 12\nSTATS\n"));
  auto replies = conn.ReadLinesTiny(4);
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0], "PONG");
  EXPECT_EQ(replies[1], "OK");
  EXPECT_EQ(replies[2], "OK");
  EXPECT_NE(replies[3].find("accepted=2"), std::string::npos) << replies[3];

  // A second batch on the same connection, split mid-verb across two
  // bursts with a pause between them.
  ASSERT_TRUE(conn.SendFragmented("POI"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.SendFragmented("NT 1 12 1\nQUIT\n"));
  replies = conn.ReadLinesTiny(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].compare(0, 6, "VALUE "), 0) << replies[0];
  EXPECT_EQ(replies[1], "BYE");
}

// Satellite: a client that connects and goes silent is evicted after
// the idle timeout instead of holding its slot forever.
TEST_F(ServerTest, IdleConnectionIsClosed) {
  TcpServerOptions tcp;
  tcp.idle_timeout_ms = 100;
  StartServer(EngineOpts(4), BurstServiceOptions(), tcp);
  LineClient client = Connect();
  // Active traffic is unaffected...
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
  // ...but silence past the timeout gets the connection closed.
  const auto start = std::chrono::steady_clock::now();
  auto eof = client.ReadLine();
  EXPECT_FALSE(eof.ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

// Satellite: graceful shutdown plumbing. StopAccepting refuses new
// dials while established connections keep being served; Drain
// reports idle once they hang up.
TEST_F(ServerTest, StopAcceptingThenDrain) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  // A round trip first: Connect() alone only parks the dial in the
  // kernel backlog, and a backlogged-but-unaccepted connection is
  // fair game for StopAccepting() to reset.
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
  server_->StopAccepting();
  // Established (accepted) connection still answers.
  EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
  // New dials are refused (connect fails or the socket is dead on
  // arrival).
  RawConn late(server_->port());
  if (late.ok()) {
    EXPECT_TRUE(late.SendFragmented("PING\n"));
    EXPECT_TRUE(late.ReadLinesTiny(1).empty());
  }
  // Still one active connection: a zero-grace drain times out.
  EXPECT_FALSE(server_->Drain(0));
  client.Close();
  EXPECT_TRUE(server_->Drain(2000));
  server_->Stop();
}

// This process's VmSize in KiB from /proc/self/status, or -1.
long VmSizeKiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  long kib = -1;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmSize: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

// A connection's thread is joined once the connection ends, not only
// at Stop(): an unjoined thread keeps its stack mapped, so reaping at
// shutdown alone grows the server by one stack per connection ever
// made, Prometheus scrapes included. 64 connections in sequence must
// leave VmSize within a few thread stacks of where it started.
TEST_F(ServerTest, EndedConnectionThreadsAreReaped) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_getattr_default_np(&attr), 0);
  size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  ASSERT_GT(stack_bytes, 0u);

  StartServer(EngineOpts(4));
  auto one_connection = [&] {
    LineClient client = Connect();
    EXPECT_EQ(RoundTrip(&client, "PING"), "PONG");
    EXPECT_EQ(RoundTrip(&client, "QUIT"), "BYE");
    // EOF: the server closed its end, so this connection has ended.
    EXPECT_FALSE(client.ReadLine().ok());
  };
  // Warm-up, so stacks the allocator caches for reuse are already
  // mapped before the baseline is read.
  for (int i = 0; i < 4; ++i) one_connection();
  const long before_kib = VmSizeKiB();
  if (before_kib < 0) GTEST_SKIP() << "/proc/self/status is not readable";
  for (int i = 0; i < 64; ++i) one_connection();
  const long grown_bytes = (VmSizeKiB() - before_kib) * 1024;
  EXPECT_LT(grown_bytes, static_cast<long>(4 * stack_bytes))
      << "thread stack " << stack_bytes << " bytes";
}

// PROMOTE against a plain (non-replica) server is a refusal.
TEST_F(ServerTest, PromoteOnPlainServerIsRefused) {
  StartServer(EngineOpts(4));
  LineClient client = Connect();
  const std::string reply = RoundTrip(&client, "PROMOTE");
  EXPECT_EQ(reply.compare(0, 23, "ERR FAILED_PRECONDITION"), 0) << reply;
}

// Follower serving through ReplicaHooks: writes are refused with
// UNAVAILABLE, queries carry the lag stamp, STATS reports the role —
// and after PROMOTE flips the hooks, writes flow.
TEST_F(ServerTest, FollowerHooksGateWritesAndStampLag) {
  static std::mutex apply_mu;
  static std::atomic<bool> is_follower{true};
  is_follower.store(true);
  BurstServiceOptions service;
  service.replica.enabled = true;
  service.replica.write_mu = &apply_mu;
  service.replica.is_follower = [] { return is_follower.load(); };
  service.replica.lag = [] { return Timestamp{7}; };
  service.replica.applied = [] { return uint64_t{42}; };
  service.replica.promote = [] {
    is_follower.store(false);
    return Status::OK();
  };
  StartServer(EngineOpts(4), service);
  LineClient client = Connect();

  const std::string add = RoundTrip(&client, "ADD 1 10");
  EXPECT_EQ(add.compare(0, 15, "ERR UNAVAILABLE"), 0) << add;
  const std::string point = RoundTrip(&client, "POINT 1 10 1");
  EXPECT_EQ(point.compare(0, 6, "VALUE "), 0) << point;
  EXPECT_NE(point.find(" lag=7"), std::string::npos) << point;
  std::string stats = RoundTrip(&client, "STATS");
  EXPECT_NE(stats.find("role=follower"), std::string::npos) << stats;
  EXPECT_NE(stats.find("applied=42"), std::string::npos) << stats;

  EXPECT_EQ(RoundTrip(&client, "PROMOTE"), "OK");
  stats = RoundTrip(&client, "STATS");
  EXPECT_NE(stats.find("role=leader"), std::string::npos) << stats;
  EXPECT_EQ(RoundTrip(&client, "ADD 1 10"), "OK");
}

TEST(WireTest, ParseRejectsMalformedNumbers) {
  EXPECT_FALSE(ParseRequest("ADD 1 2x").ok());
  EXPECT_FALSE(ParseRequest("ADD -1 2").ok());
  EXPECT_FALSE(ParseRequest("POINT 1 2").ok());
  EXPECT_FALSE(ParseRequest("TOPK 5 -3 1").ok());
  EXPECT_FALSE(ParseRequest("PING extra").ok());
  EXPECT_FALSE(ParseRequest("").ok());
  auto ok = ParseRequest("  ADD  3   17  2 ");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().e, 3u);
  EXPECT_EQ(ok.value().t, 17);
  EXPECT_EQ(ok.value().count, 2u);
}

TEST(WireTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 1.0 / 3.0, 12345.678901234567, 1e300}) {
    const std::string s = FormatDouble(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(FormatDouble(2.0), "2");
}

TEST(WireTest, LineBufferSplitsAndRejectsOverlong) {
  LineBuffer buf(/*max_line_bytes=*/8);
  std::vector<std::string> lines;
  ASSERT_TRUE(buf.Feed("a\r\nbb\nc", 7, &lines).ok());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "bb");
  const std::string longline(20, 'x');
  EXPECT_FALSE(buf.Feed(longline.data(), longline.size(), &lines).ok());
}

}  // namespace
}  // namespace server
}  // namespace bursthist
