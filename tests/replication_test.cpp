// Replication subsystem tests: WAL shipping, follower convergence,
// reconnect/resume, snapshot bootstrap, chaos-injected link abuse,
// and failover by promotion.
//
// The convergence oracle is byte identity: a follower that has
// applied the leader's full record sequence, in order, against the
// same options must serialize to exactly the leader's bytes — any
// divergence (lost record, duplicate, reordering, corrupted apply)
// shows up as a diff, with no tolerance to hide in.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "recovery/durable_engine.h"
#include "replication/flaky_transport.h"
#include "replication/repl_wire.h"
#include "replication/replica_engine.h"
#include "replication/transport.h"
#include "replication/wal_shipper.h"
#include "test_util.h"
#include "util/env.h"

namespace bursthist {
namespace {

using repl::FlakyTransport;
using repl::ReplicaEngine;
using repl::ReplicaOptions;
using repl::ReplTransport;
using repl::WalShipper;
using repl::WalShipperOptions;
using test::StreamFamily;
using test::StreamSpec;

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = Env::Default(); }

  void TearDown() override {
    for (const std::string& dir : dirs_) {
      auto names = env_->ListDir(dir);
      if (names.ok()) {
        for (const auto& n : names.value()) {
          (void)env_->DeleteFile(dir + "/" + n);
        }
      }
      ::rmdir(dir.c_str());
    }
  }

  std::string NewDir(const std::string& tag) {
    std::string dir = testing::TempDir() + "/bursthist_repl_" + tag + "_" +
                      std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
                      std::to_string(dirs_.size());
    EXPECT_TRUE(env_->CreateDirIfMissing(dir).ok());
    dirs_.push_back(dir);
    return dir;
  }

  Env* env_ = nullptr;
  std::vector<std::string> dirs_;
};

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

// Small segments so workloads cross rotations (and checkpoints can
// prune shipped history out from under a lagging follower).
DurabilityOptions SmallDurability() {
  DurabilityOptions d;
  d.wal_segment_bytes = 16 << 10;
  return d;
}

ReplicaOptions FastReplicaOptions(uint16_t port) {
  ReplicaOptions r;
  r.leader_port = port;
  r.recv_timeout_ms = 10;
  r.dead_after_ms = 1000;
  r.backoff_initial_ms = 2;
  r.backoff_max_ms = 40;
  return r;
}

WalShipperOptions FastShipperOptions() {
  WalShipperOptions s;
  s.poll_interval_ms = 2;
  s.heartbeat_interval_ms = 25;
  return s;
}

std::vector<uint8_t> EngineBytes(const BurstEngine<Pbe1>& engine) {
  BurstEngine<Pbe1> finalized(engine);
  finalized.Finalize();
  BinaryWriter w;
  finalized.Serialize(&w);
  return w.bytes();
}

// Leader-side state callback: reads position + watermark under the
// same mutex the appends hold.
WalShipper::LeaderStateFn StateOf(DurableBurstEngine<Pbe1>* leader,
                                  std::mutex* mu) {
  return [leader, mu] {
    std::lock_guard<std::mutex> lock(*mu);
    return repl::LeaderStatus{leader->wal_position(),
                              leader->engine().Watermark()};
  };
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

// Generous wall-clock cap: these tests run under TSan in CI.
constexpr int kConvergeMs = 30000;

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

TEST(ReplWireTest, FramesRoundTripThroughTornFeeds) {
  repl::HelloFrame hello;
  hello.have_state = true;
  hello.resume = WalPosition{7, 1234};
  repl::RecordFrame rec;
  rec.end = WalPosition{9, 99};
  rec.e = 3;
  rec.t = -5;
  rec.count = 12;
  repl::HeartbeatFrame hb;
  hb.durable_end = WalPosition{2, 10};
  hb.watermark = 77;
  repl::SnapshotFrame snap;
  snap.generation = 4;
  snap.covered = WalPosition{5, 0};
  snap.blob = {1, 2, 3, 0xff, 0};
  repl::ErrorFrame err;
  err.code = 14;
  err.message = "go away";

  std::vector<uint8_t> stream;
  for (const auto& wire :
       {repl::EncodeHello(hello), repl::EncodeRecord(rec),
        repl::EncodeHeartbeat(hb), repl::EncodeSnapshot(snap),
        repl::EncodeError(err)}) {
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  // Feed one byte at a time: every frame must still come out whole.
  repl::FrameReader reader;
  std::vector<repl::ReplFrame> frames;
  for (uint8_t b : stream) {
    reader.Feed(&b, 1);
    repl::ReplFrame f;
    for (;;) {
      auto next = reader.Next(&f);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value()) break;
      frames.push_back(f);
    }
  }
  ASSERT_EQ(frames.size(), 5u);

  repl::HelloFrame hello2;
  ASSERT_TRUE(repl::DecodeHello(frames[0].payload, &hello2).ok());
  EXPECT_TRUE(hello2.have_state);
  EXPECT_EQ(hello2.resume, (WalPosition{7, 1234}));
  repl::RecordFrame rec2;
  ASSERT_TRUE(repl::DecodeRecord(frames[1].payload, &rec2).ok());
  EXPECT_EQ(rec2.end, (WalPosition{9, 99}));
  EXPECT_EQ(rec2.e, 3u);
  EXPECT_EQ(rec2.t, -5);
  EXPECT_EQ(rec2.count, 12u);
  repl::HeartbeatFrame hb2;
  ASSERT_TRUE(repl::DecodeHeartbeat(frames[2].payload, &hb2).ok());
  EXPECT_EQ(hb2.watermark, 77);
  repl::SnapshotFrame snap2;
  ASSERT_TRUE(repl::DecodeSnapshot(frames[3].payload, &snap2).ok());
  EXPECT_EQ(snap2.blob, snap.blob);
  EXPECT_EQ(snap2.covered, (WalPosition{5, 0}));
  repl::ErrorFrame err2;
  ASSERT_TRUE(repl::DecodeError(frames[4].payload, &err2).ok());
  EXPECT_EQ(err2.code, 14u);
  EXPECT_EQ(err2.message, "go away");
}

TEST(ReplWireTest, EveryFlippedBitIsRejected) {
  repl::RecordFrame rec;
  rec.end = WalPosition{1, 42};
  rec.e = 1;
  rec.t = 100;
  const std::vector<uint8_t> wire = repl::EncodeRecord(rec);
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> bad = wire;
    bad[i] ^= 0x10;
    repl::FrameReader reader;
    reader.Feed(bad.data(), bad.size());
    repl::ReplFrame f;
    auto next = reader.Next(&f);
    if (next.ok() && next.value()) {
      // Only a length-field flip can "succeed" at the envelope level
      // by asking for more bytes — but then Next returns false, not a
      // frame. A returned frame with a flipped byte is a CRC escape.
      FAIL() << "flip at byte " << i << " produced a verified frame";
    }
  }
}

// ---------------------------------------------------------------------------
// Shipping + convergence
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, ShipAndConverge) {
  const std::string leader_dir = NewDir("leader");
  const std::string follower_dir = NewDir("follower");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;

  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());

  auto replica = ReplicaEngine<Pbe1>::Open(env_, follower_dir, SmallOptions(),
                                           SmallDurability(),
                                           FastReplicaOptions(shipper.port()));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(replica.value()->Start().ok());

  const StreamSpec spec{StreamFamily::kUniform, 16, 1200, test::CaseSeed(1),
                        0};
  const auto arrivals = test::GenerateArrivals(spec);
  for (const auto& r : arrivals) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()->Append(r.id, r.time).ok());
  }
  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }

  auto* rep = replica.value().get();
  ASSERT_TRUE(WaitUntil([rep, end] { return rep->applied_position() == end; },
                        kConvergeMs))
      << "applied " << rep->applied_records() << "/" << arrivals.size()
      << " last_error=" << rep->last_error().ToString();
  EXPECT_EQ(rep->applied_records(), arrivals.size());
  EXPECT_TRUE(rep->last_error().ok()) << rep->last_error().ToString();
  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep->durable()->engine()));

  // Heartbeats carry the leader watermark; with everything applied
  // the reported lag must settle to zero.
  EXPECT_TRUE(WaitUntil([rep] { return rep->connected() && rep->lag() == 0; },
                        kConvergeMs));

  rep->Stop();
  shipper.Stop();
}

TEST_F(ReplicationTest, BlankFollowerBootstrapsFromSnapshot) {
  const std::string leader_dir = NewDir("leader");
  const std::string follower_dir = NewDir("follower");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;

  const StreamSpec spec{StreamFamily::kBursty, 16, 1000, test::CaseSeed(2), 0};
  const auto arrivals = test::GenerateArrivals(spec);
  const size_t half = arrivals.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(
        leader.value()->Append(arrivals[i].id, arrivals[i].time)
            .ok());
  }
  // Checkpoint prunes the covered WAL: history before it now exists
  // only as the snapshot, so a blank follower MUST bootstrap.
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()->Checkpoint().ok());
  }
  for (size_t i = half; i < arrivals.size(); ++i) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(
        leader.value()->Append(arrivals[i].id, arrivals[i].time)
            .ok());
  }

  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());
  auto replica = ReplicaEngine<Pbe1>::Open(env_, follower_dir, SmallOptions(),
                                           SmallDurability(),
                                           FastReplicaOptions(shipper.port()));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(replica.value()->Start().ok());

  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }
  auto* rep = replica.value().get();
  ASSERT_TRUE(WaitUntil([rep, end] { return rep->applied_position() == end; },
                        kConvergeMs))
      << "applied " << rep->applied_records()
      << " last_error=" << rep->last_error().ToString();
  // Records up to the checkpoint arrived inside the snapshot blob,
  // not one by one.
  EXPECT_LE(rep->applied_records(), arrivals.size() - half);
  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep->durable()->engine()));

  rep->Stop();
  shipper.Stop();
}

TEST_F(ReplicationTest, RestartResumesWithoutDuplicates) {
  const std::string leader_dir = NewDir("leader");
  const std::string follower_dir = NewDir("follower");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;
  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());

  const StreamSpec spec{StreamFamily::kUniform, 16, 800, test::CaseSeed(3), 0};
  const auto arrivals = test::GenerateArrivals(spec);
  const size_t half = arrivals.size() / 2;

  {
    auto replica = ReplicaEngine<Pbe1>::Open(
        env_, follower_dir, SmallOptions(), SmallDurability(),
        FastReplicaOptions(shipper.port()));
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    ASSERT_TRUE(replica.value()->Start().ok());
    for (size_t i = 0; i < half; ++i) {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_TRUE(leader.value()
                      ->Append(arrivals[i].id, arrivals[i].time)
                      .ok());
    }
    WalPosition end;
    {
      std::lock_guard<std::mutex> lock(mu);
      end = leader.value()->wal_position();
    }
    auto* rep = replica.value().get();
    ASSERT_TRUE(WaitUntil(
        [rep, end] { return rep->applied_position() == end; }, kConvergeMs));
    // Destructor stops the apply thread: an unclean-ish mid-stream
    // exit as far as the leader is concerned.
  }

  for (size_t i = half; i < arrivals.size(); ++i) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()
                    ->Append(arrivals[i].id, arrivals[i].time)
                    .ok());
  }

  auto replica = ReplicaEngine<Pbe1>::Open(env_, follower_dir, SmallOptions(),
                                           SmallDurability(),
                                           FastReplicaOptions(shipper.port()));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(replica.value()->Start().ok());
  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }
  auto* rep = replica.value().get();
  ASSERT_TRUE(WaitUntil([rep, end] { return rep->applied_position() == end; },
                        kConvergeMs))
      << "last_error=" << rep->last_error().ToString();
  // The reopened replica presented its durable position and received
  // ONLY the second half — exactly-once across the restart.
  EXPECT_EQ(rep->applied_records(), arrivals.size() - half);
  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep->durable()->engine()));

  rep->Stop();
  shipper.Stop();
}

TEST_F(ReplicationTest, LocalHistoryRefusesToFollow) {
  const std::string dir = NewDir("local");
  {
    auto durable = DurableBurstEngine<Pbe1>::Open(env_, dir, SmallOptions(),
                                                  SmallDurability());
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(durable.value()->Append(1, 10).ok());
    ASSERT_TRUE(durable.value()->Sync().ok());
  }
  auto replica = ReplicaEngine<Pbe1>::Open(env_, dir, SmallOptions(),
                                           SmallDurability(),
                                           FastReplicaOptions(1));
  ASSERT_FALSE(replica.ok());
  EXPECT_EQ(replica.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Chaos: injected disconnects, torn frames, bit flips — per family
// ---------------------------------------------------------------------------

class ReplicationChaosTest
    : public ReplicationTest,
      public ::testing::WithParamInterface<StreamFamily> {};

TEST_P(ReplicationChaosTest, ConvergesThroughLinkAbuse) {
  const StreamFamily family = GetParam();
  const Timestamp lateness = family == StreamFamily::kOutOfOrder ? 6 : 0;
  const std::string leader_dir = NewDir("leader");
  const std::string follower_dir = NewDir("follower");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(lateness),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;
  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());

  FlakyTransport flaky(ReplTransport::Default());
  flaky.FailNextConnects(1);  // first dial refused: backoff from breath one
  ReplicaOptions ropts = FastReplicaOptions(shipper.port());
  ropts.transport = &flaky;
  auto replica = ReplicaEngine<Pbe1>::Open(env_, follower_dir,
                                           SmallOptions(lateness),
                                           SmallDurability(), ropts);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(replica.value()->Start().ok());
  auto* rep = replica.value().get();

  StreamSpec spec;
  spec.family = family;
  spec.universe = 16;
  spec.n = 1500;
  spec.seed = test::CaseSeed(10 + static_cast<uint64_t>(family));
  spec.max_lateness = lateness;
  const auto arrivals = test::GenerateArrivals(spec);

  // Rotate through the abuse menu as the stream flows: a hard cut
  // mid-frame, a flipped bit (CRC rejection), a refused reconnect,
  // and a leader checkpoint that prunes shipped history away.
  size_t abuse = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_TRUE(leader.value()
                      ->Append(arrivals[i].id, arrivals[i].time)
                      .ok());
    }
    if (i % 200 == 199) {
      switch (abuse++ % 4) {
        case 0:
          flaky.CutRecvAt(flaky.bytes_delivered() + 64 + i);
          break;
        case 1:
          flaky.FlipBitAt(flaky.bytes_delivered() + 32 + i,
                          static_cast<int>(i) & 7);
          break;
        case 2:
          flaky.FailNextConnects(1);
          break;
        case 3: {
          std::lock_guard<std::mutex> lock(mu);
          ASSERT_TRUE(leader.value()->Checkpoint().ok());
          break;
        }
      }
    }
  }
  // Let armed faults fire while the tail drains, then clear them so
  // convergence is reachable.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  flaky.Disarm();

  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }
  ASSERT_TRUE(WaitUntil([rep, end] { return rep->applied_position() == end; },
                        kConvergeMs))
      << "family=" << test::FamilyName(family) << " applied "
      << rep->applied_records() << " reconnects=" << rep->reconnects()
      << " rejected=" << rep->frames_rejected()
      << " last_error=" << rep->last_error().ToString();

  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep->durable()->engine()))
      << "family=" << test::FamilyName(family)
      << " spec=" << spec.ToString();
  // The link was actually abused: at least the refused dials forced
  // reconnects.
  EXPECT_GE(rep->reconnects(), 1u) << test::FamilyName(family);

  rep->Stop();
  shipper.Stop();
}

INSTANTIATE_TEST_SUITE_P(Families, ReplicationChaosTest,
                         ::testing::Values(StreamFamily::kUniform,
                                           StreamFamily::kBursty,
                                           StreamFamily::kOutOfOrder),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case StreamFamily::kUniform:
                               return "Uniform";
                             case StreamFamily::kBursty:
                               return "Bursty";
                             default:
                               return "OutOfOrder";
                           }
                         });

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, PromotedFollowerMatchesNeverCrashedLeader) {
  const std::string leader_dir = NewDir("leader");
  const std::string follower_dir = NewDir("follower");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::mutex mu;
  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());
  auto replica = ReplicaEngine<Pbe1>::Open(env_, follower_dir, SmallOptions(),
                                           SmallDurability(),
                                           FastReplicaOptions(shipper.port()));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(replica.value()->Start().ok());
  auto* rep = replica.value().get();

  const StreamSpec spec{StreamFamily::kBursty, 16, 1000, test::CaseSeed(4), 0};
  const auto arrivals = test::GenerateArrivals(spec);
  const size_t half = arrivals.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()
                    ->Append(arrivals[i].id, arrivals[i].time)
                    .ok());
  }
  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }
  ASSERT_TRUE(WaitUntil([rep, end] { return rep->applied_position() == end; },
                        kConvergeMs));

  // Leader dies mid-deployment: shipper gone, process gone.
  shipper.Stop();
  leader.value().reset();

  EXPECT_TRUE(rep->follower());
  ASSERT_TRUE(rep->Promote().ok());
  EXPECT_FALSE(rep->follower());
  // Promoting twice is a refusal, not a no-op.
  EXPECT_EQ(rep->Promote().code(), StatusCode::kFailedPrecondition);

  // The promoted leader takes the writes the old leader never saw.
  for (size_t i = half; i < arrivals.size(); ++i) {
    std::lock_guard<std::mutex> lock(*rep->write_mu());
    ASSERT_TRUE(rep->durable()
                    ->Append(arrivals[i].id, arrivals[i].time)
                    .ok());
  }

  // Reference: a leader that never crashed, fed the same stream.
  BurstEngine<Pbe1> reference((SmallOptions()));
  for (const auto& r : arrivals) {
    ASSERT_TRUE(reference.Append(r.id, r.time).ok());
  }
  BurstEngine<Pbe1> want(reference);
  want.Finalize();
  BurstEngine<Pbe1> got(rep->durable()->engine());
  got.Finalize();

  // Byte identity implies identical answers; spot-check every query
  // type anyway so a serializer quirk can't mask a semantic drift.
  EXPECT_EQ(EngineBytes(reference), EngineBytes(rep->durable()->engine()));
  const Timestamp wm = want.Watermark();
  const Timestamp tau = 8;
  for (EventId e = 0; e < 16; ++e) {
    EXPECT_EQ(got.PointQuery(e, wm, tau), want.PointQuery(e, wm, tau)) << e;
    EXPECT_EQ(got.BurstyTimeQuery(e, 2.0, tau),
              want.BurstyTimeQuery(e, 2.0, tau))
        << e;
  }
  EXPECT_EQ(got.BurstyEventQuery(wm, 2.0, tau),
            want.BurstyEventQuery(wm, 2.0, tau));
  EXPECT_EQ(got.TopKBurstyEvents(wm, 4, tau), want.TopKBurstyEvents(wm, 4, tau));

  // The promoted directory reopens as a normal durable leader.
  rep->Stop();
}

// Cascading chain: leader → F1 → F2. F1's WAL holds kReplicated
// frames; its shipper must normalize them to wire records stamped
// with F1's OWN log positions, and F2 must still converge to the
// leader's bytes.
TEST_F(ReplicationTest, CascadedFollowerConverges) {
  const std::string leader_dir = NewDir("leader");
  const std::string f1_dir = NewDir("f1");
  const std::string f2_dir = NewDir("f2");
  auto leader = DurableBurstEngine<Pbe1>::Open(env_, leader_dir,
                                               SmallOptions(),
                                               SmallDurability());
  ASSERT_TRUE(leader.ok());
  std::mutex mu;
  WalShipper shipper;
  ASSERT_TRUE(shipper
                  .Start(env_, leader_dir, FastShipperOptions(),
                         StateOf(leader.value().get(), &mu))
                  .ok());

  auto f1 = ReplicaEngine<Pbe1>::Open(env_, f1_dir, SmallOptions(),
                                      SmallDurability(),
                                      FastReplicaOptions(shipper.port()));
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f1.value()->Start().ok());
  auto* rep1 = f1.value().get();

  WalShipper mid_shipper;
  ASSERT_TRUE(mid_shipper
                  .Start(env_, f1_dir, FastShipperOptions(),
                         StateOf(rep1->durable(), rep1->write_mu()))
                  .ok());
  auto f2 = ReplicaEngine<Pbe1>::Open(env_, f2_dir, SmallOptions(),
                                      SmallDurability(),
                                      FastReplicaOptions(mid_shipper.port()));
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f2.value()->Start().ok());
  auto* rep2 = f2.value().get();

  const StreamSpec spec{StreamFamily::kUniform, 16, 600, test::CaseSeed(5), 0};
  const auto arrivals = test::GenerateArrivals(spec);
  for (const auto& r : arrivals) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_TRUE(leader.value()->Append(r.id, r.time).ok());
  }
  WalPosition end;
  {
    std::lock_guard<std::mutex> lock(mu);
    end = leader.value()->wal_position();
  }
  ASSERT_TRUE(WaitUntil(
      [rep1, end] { return rep1->applied_position() == end; }, kConvergeMs))
      << rep1->last_error().ToString();
  // F2 is converged when it has applied everything F1 has: their
  // engines serialize identically.
  ASSERT_TRUE(WaitUntil(
      [rep1, rep2] {
        return rep2->applied_records() == rep1->applied_records();
      },
      kConvergeMs))
      << "f2 applied " << rep2->applied_records() << "/"
      << rep1->applied_records()
      << " last_error=" << rep2->last_error().ToString();
  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep1->durable()->engine()));
  EXPECT_EQ(EngineBytes(leader.value()->engine()),
            EngineBytes(rep2->durable()->engine()));

  rep2->Stop();
  mid_shipper.Stop();
  rep1->Stop();
  shipper.Stop();
}

// Reconnect backoff jitter: deterministic in the seed, bounded in
// [base*(1-jitter), base], never below 1ms, and exactly base when
// disabled — the policy a fleet of orphaned followers relies on to
// avoid re-dialing a recovering leader in lockstep.
TEST(JitteredDelayTest, SeededDeterministicAndBounded) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int base : {2, 10, 50, 400, 2000}) {
    for (int i = 0; i < 64; ++i) {
      const int d1 = repl::JitteredDelay(base, 0.2, &a);
      const int d2 = repl::JitteredDelay(base, 0.2, &b);
      EXPECT_EQ(d1, d2) << "same seed must give the same delay sequence";
      EXPECT_GE(d1, std::max(1, static_cast<int>(base * 0.8) - 1));
      EXPECT_LE(d1, base);
      if (repl::JitteredDelay(base, 0.2, &c) != d1) diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "different seeds should jitter differently";

  Rng r(7);
  EXPECT_EQ(repl::JitteredDelay(100, 0.0, &r), 100) << "jitter 0 = no jitter";
  EXPECT_EQ(repl::JitteredDelay(1, 0.9, &r), 1);
  EXPECT_EQ(repl::JitteredDelay(0, 0.9, &r), 1) << "delays clamp up to 1ms";
  for (int i = 0; i < 32; ++i) {
    const int d = repl::JitteredDelay(3, 5.0, &r);  // jitter clamped to 1
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 3);
  }
}

}  // namespace
}  // namespace bursthist
