// Crashpoint torture: REAL SIGKILL mid-durability-protocol, then
// recover and hold the recovery contract (see
// differential/torture_harness.h for the contract and machinery).
//
// Four layers:
//
//  * RECON     trace-mode in-process run enumerating which crashpoint
//              sites the workload actually reaches — the sweep matrix
//              is derived, never hand-kept, so a site that silently
//              stops being exercised fails the recon floor.
//  * SWEEP     every reached site x seeds, kill at a seed-varied hit
//              number, recover + verify + converge.
//  * ERROR     the same sites in error mode: the injected Status must
//              surface cleanly and leave the directory
//              prefix-consistent (no kill, so also no torn state).
//  * CHAOS     randomized (site, hit) kills against ONE directory that
//              is repeatedly crashed, recovered, and resumed until the
//              workload completes — the double/triple-crash schedules
//              no enumerated matrix covers.
//
// Plus a replication scenario: leader + shipper + follower all in one
// child process, killed at the repl.* sites; the parent verifies both
// directories independently and then converges the follower to the
// finished leader over real replication.
//
// Matrix scale is environment-tunable so CI can go deep while local
// runs stay quick: BURSTHIST_TORTURE_SEEDS (default 3) and
// BURSTHIST_TORTURE_CYCLES (default 12).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "differential/torture_harness.h"
#include "fault/crashpoint.h"
#include "replication/replica_engine.h"
#include "replication/wal_shipper.h"
#include "util/random.h"

namespace bursthist {
namespace test {
namespace {

#ifdef BURSTHIST_NO_FAULT

TEST(CrashTorture, RequiresFaultSupport) {
  GTEST_SKIP() << "built with BURSTHIST_NO_FAULT: crashpoints compile to "
                  "no-ops, nothing to torture";
}

#else  // !BURSTHIST_NO_FAULT

using torture::ChildOutcome;
using torture::ForkTortureChild;
using torture::ReconSites;
using torture::RunTortureCycle;
using torture::TortureSpec;
using torture::TortureWorkload;
using torture::Verdict;
using torture::VerifyRecovered;

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0' && v > 0) ? static_cast<size_t>(v)
                                                   : fallback;
}

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    root_ = testing::TempDir() + "/bursthist_torture_" +
            std::to_string(static_cast<unsigned long long>(::getpid())) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    fault::FaultScheduler::Global().Disarm();
    ASSERT_TRUE(env_->CreateDirIfMissing(root_).ok());
  }

  void TearDown() override {
    fault::FaultScheduler::Global().Disarm();
    auto names = env_->ListDir(root_);
    if (names.ok()) {
      for (const auto& n : names.value()) RemoveTree(root_ + "/" + n);
    }
    ::rmdir(root_.c_str());
  }

  // Scratch dirs live under root_ so TearDown sweeps whatever a failed
  // cycle leaves behind.
  std::string FreshDir(const std::string& name) {
    const std::string dir = root_ + "/" + name;
    RemoveTree(dir);
    EXPECT_TRUE(env_->CreateDirIfMissing(dir).ok());
    return dir;
  }

  void RemoveTree(const std::string& dir) {
    auto names = env_->ListDir(dir);
    if (names.ok()) {
      for (const auto& n : names.value()) (void)env_->DeleteFile(dir + "/" + n);
    }
    ::rmdir(dir.c_str());
    ::unlink(dir.c_str());
  }

  Env* env_ = nullptr;
  std::string root_;
};

// ---------------------------------------------------------------------------
// Recon
// ---------------------------------------------------------------------------

// The single-engine workload must reach the full durability-protocol
// crash surface. This is the floor the sweep matrix stands on: if an
// edit stops exercising a site, this fails before the sweep silently
// shrinks.
TEST_F(CrashTortureTest, ReconReachesDurabilitySurface) {
  const auto sites = ReconSites(env_, FreshDir("recon"), TortureSpec{});
  auto hits = [&](const std::string& site) -> uint64_t {
    for (const auto& [name, count] : sites) {
      if (name == site) return count;
    }
    return 0;
  };
  for (const char* site :
       {"wal.append.pre_write", "wal.append.post_write", "wal.rotate.pre_open",
        "wal.segment.pre_dir_sync", "snapshot.post_tmp_write",
        "snapshot.post_tmp_fsync", "snapshot.pre_rename",
        "snapshot.pre_dir_fsync", "checkpoint.pre_rotate", "checkpoint.mid",
        "checkpoint.post_snapshot"}) {
    EXPECT_GE(hits(site), 1u) << "workload no longer reaches crashpoint "
                              << site;
  }
  EXPECT_GE(sites.size(), 11u);
}

// ---------------------------------------------------------------------------
// Sweep: every reached site x seeds, kill mode
// ---------------------------------------------------------------------------

TEST_F(CrashTortureTest, KillSweepEveryReachedSite) {
  const size_t seeds = EnvSizeOr("BURSTHIST_TORTURE_SEEDS", 3);
  const std::string ack = root_ + "/sweep.ack";
  size_t cycles = 0;
  for (size_t seed = 1; seed <= seeds; ++seed) {
    TortureSpec spec;
    spec.seed = seed;
    // Recon per seed: families differ per seed, so reach and hit
    // counts differ too.
    const auto sites = ReconSites(env_, FreshDir("sweep_recon"), spec);
    ASSERT_FALSE(sites.empty());
    for (const auto& [site, total_hits] : sites) {
      // Vary the kill position with the seed so repeated sweeps cover
      // first, middle, and last occurrences of each site.
      const uint64_t hit = 1 + (seed * 7 + cycles) % total_hits;
      const std::string schedule =
          site + "=kill@" + std::to_string(hit);
      const Verdict v = RunTortureCycle(env_, FreshDir("sweep"), ack,
                                        schedule, spec);
      EXPECT_TRUE(v.ok) << v.detail;
      ++cycles;
    }
  }
  RecordProperty("torture_kill_cycles", static_cast<int>(cycles));
  // 11+ sites x seeds — the matrix must not silently shrink.
  EXPECT_GE(cycles, 11 * seeds);
}

// ---------------------------------------------------------------------------
// Error mode: the injected Status must surface and leave the
// directory prefix-consistent
// ---------------------------------------------------------------------------

TEST_F(CrashTortureTest, ErrorInjectionStaysPrefixConsistent) {
  const std::string ack = root_ + "/error.ack";
  TortureSpec spec;
  spec.seed = 5;
  const auto sites = ReconSites(env_, FreshDir("error_recon"), spec);
  ASSERT_FALSE(sites.empty());
  for (const auto& [site, total_hits] : sites) {
    const uint64_t hit = 1 + total_hits / 2;
    const std::string schedule = site + "=error@" + std::to_string(hit);
    const Verdict v =
        RunTortureCycle(env_, FreshDir("error"), ack, schedule, spec);
    EXPECT_TRUE(v.ok) << v.detail;
  }
}

// ---------------------------------------------------------------------------
// Chaos: randomized repeated kills against one surviving directory
// ---------------------------------------------------------------------------

TEST_F(CrashTortureTest, ChaosRepeatedCrashRecoverResume) {
  const size_t cycles = EnvSizeOr("BURSTHIST_TORTURE_CYCLES", 12);
  const uint64_t chaos_seed = EnvSizeOr("BURSTHIST_TORTURE_CHAOS_SEED", 7);
  Rng rng(chaos_seed);

  TortureSpec spec;
  spec.seed = chaos_seed;
  const auto workload = TortureWorkload(spec);
  const auto sites = ReconSites(env_, FreshDir("chaos_recon"), spec);
  ASSERT_FALSE(sites.empty());

  std::string dir = FreshDir("chaos");
  const std::string ack = root_ + "/chaos.ack";
  uint64_t prev_k = 0;
  size_t completions = 0;
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    const auto& [site, total_hits] = sites[rng.NextBelow(sites.size())];
    const uint64_t hit = 1 + rng.NextBelow(total_hits);
    const std::string schedule = site + "=kill@" + std::to_string(hit);

    const ChildOutcome child = ForkTortureChild(dir, ack, schedule, spec);
    // Kill-only schedule: the child either dies at the crashpoint or
    // finishes the workload (the scheduled hit lies beyond what the
    // resumed suffix reaches).
    ASSERT_TRUE(child.killed || child.exit_code == torture::kChildCompleted)
        << "cycle " << cycle << " schedule " << schedule << " exit "
        << child.exit_code;

    const Verdict v = VerifyRecovered(env_, dir, workload, child.acked);
    ASSERT_TRUE(v.ok) << "cycle " << cycle << " schedule " << schedule << ": "
                      << v.detail;
    // The child resumed from prev_k and acked every accepted append,
    // so recovery must never regress below prev_k + acked.
    ASSERT_GE(v.recovered_k, prev_k + child.acked)
        << "cycle " << cycle << " lost progress (prev=" << prev_k
        << " acked=" << child.acked << ")";
    prev_k = v.recovered_k;

    if (prev_k == workload.size()) {
      // Workload survived to completion through the crash gauntlet —
      // restart it from scratch for the remaining cycles.
      ++completions;
      dir = FreshDir("chaos");
      prev_k = 0;
    }
  }
  RecordProperty("torture_chaos_completions", static_cast<int>(completions));
}

// ---------------------------------------------------------------------------
// Replication: leader + shipper + follower in one child, killed at
// the repl.* sites
// ---------------------------------------------------------------------------

// The child runs the whole replication topology in one process (a
// kill from any thread takes down leader, shipper, and follower at
// once): ingest half, checkpoint (so a joining empty follower takes
// the bootstrap-snapshot path), attach the follower, ingest the rest,
// wait for convergence. Acks count LEADER appends only.
int RunReplicationChild(Env* env, const std::string& leader_dir,
                        const std::string& follower_dir, int ack_fd,
                        const TortureSpec& spec) {
  using torture::kChildCompleted;
  using torture::kChildInjectedError;
  using torture::kChildSetupFailure;
  const auto workload = TortureWorkload(spec);

  auto leader_or = DurableBurstEngine<Pbe1>::Open(
      env, leader_dir, torture::TortureEngineOptions(),
      torture::TortureDurability());
  if (!leader_or.ok()) return kChildInjectedError;
  auto leader = std::move(leader_or).value();
  std::mutex mu;

  size_t i = static_cast<size_t>(leader->engine().TotalCount());
  if (i > workload.size()) return kChildSetupFailure;
  auto append_until = [&](size_t stop) -> Status {
    for (; i < stop; ++i) {
      std::lock_guard<std::mutex> lock(mu);
      BURSTHIST_RETURN_IF_ERROR(
          leader->Append(workload[i].id, workload[i].time));
      torture::AckAppends(ack_fd, 1);
    }
    return Status::OK();
  };

  const size_t half = workload.size() / 2;
  if (!append_until(std::max(i, half)).ok()) return kChildInjectedError;
  if (!leader->Checkpoint().ok()) return kChildInjectedError;

  repl::WalShipper shipper;
  repl::WalShipperOptions ship_opts;
  ship_opts.poll_interval_ms = 2;
  ship_opts.heartbeat_interval_ms = 25;
  auto state_fn = [&leader, &mu] {
    std::lock_guard<std::mutex> lock(mu);
    return repl::LeaderStatus{leader->wal_position(),
                              leader->engine().Watermark()};
  };
  if (!shipper.Start(env, leader_dir, ship_opts, state_fn).ok()) {
    return kChildSetupFailure;
  }

  repl::ReplicaOptions rep_opts;
  rep_opts.leader_port = shipper.port();
  rep_opts.recv_timeout_ms = 10;
  rep_opts.dead_after_ms = 1000;
  rep_opts.backoff_initial_ms = 2;
  rep_opts.backoff_max_ms = 40;
  rep_opts.backoff_seed = spec.seed + 1;
  auto replica_or = repl::ReplicaEngine<Pbe1>::Open(
      env, follower_dir, torture::TortureEngineOptions(),
      torture::TortureDurability(), rep_opts);
  if (!replica_or.ok()) return kChildInjectedError;
  auto replica = std::move(replica_or).value();
  if (!replica->Start().ok()) return kChildSetupFailure;

  if (!append_until(workload.size()).ok()) return kChildInjectedError;
  if (!leader->Sync().ok()) return kChildInjectedError;

  // Give the scheduled repl.* crashpoint every chance to fire: hold
  // the topology up until the follower reports zero lag (best-effort
  // — the PARENT does all verification, so a slow follower just means
  // the child exits with replication mid-flight, which is itself a
  // fine crash state).
  for (int waited = 0; waited < 30000; waited += 5) {
    if (replica->connected() && replica->lag() == 0) break;
    ::usleep(5000);
  }
  replica->Stop();
  shipper.Stop();
  return kChildCompleted;
}

class ReplicationTortureTest : public CrashTortureTest {
 protected:
  // Mirrors ForkTortureChild but runs the replication topology.
  ChildOutcome ForkReplicationChild(const std::string& leader_dir,
                                    const std::string& follower_dir,
                                    const std::string& ack_path,
                                    const std::string& schedule,
                                    const TortureSpec& spec) {
    ::unlink(ack_path.c_str());
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      auto& sched = fault::FaultScheduler::Global();
      sched.Disarm();
      if (!schedule.empty() && !sched.LoadSchedule(schedule).ok()) {
        ::_exit(torture::kChildSetupFailure);
      }
      const int ack_fd =
          ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(torture::kChildSetupFailure);
      ::_exit(RunReplicationChild(Env::Default(), leader_dir, follower_dir,
                                  ack_fd, spec));
    }
    ChildOutcome out;
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
};

TEST_F(ReplicationTortureTest, KillAtReplicationSitesThenConverge) {
  const size_t seeds = EnvSizeOr("BURSTHIST_TORTURE_REPL_SEEDS", 2);
  const struct {
    const char* site;
    uint64_t hit;
  } kSchedules[] = {
      // Follower apply loop, early and deep into the shipped stream.
      {"repl.apply.post_record", 1},
      {"repl.apply.post_record", 40},
      // Shipper about to stream the bootstrap snapshot.
      {"repl.bootstrap.pre_send", 1},
      // Follower about to persist an installed snapshot.
      {"repl.install.pre_checkpoint", 1},
  };
  const std::string ack = root_ + "/repl.ack";
  for (size_t seed = 1; seed <= seeds; ++seed) {
    TortureSpec spec;
    spec.seed = seed;
    const auto workload = TortureWorkload(spec);
    for (const auto& sched : kSchedules) {
      const std::string leader_dir = FreshDir("repl_leader");
      const std::string follower_dir = FreshDir("repl_follower");
      const std::string schedule = std::string(sched.site) + "=kill@" +
                                   std::to_string(sched.hit);
      const ChildOutcome child =
          ForkReplicationChild(leader_dir, follower_dir, ack, schedule, spec);
      // The scheduled site may not fire (e.g. the bootstrap path only
      // runs when the follower joins without state); then the child
      // converges and exits 0, which still verifies below.
      ASSERT_TRUE(child.killed || child.exit_code == torture::kChildCompleted)
          << schedule << " seed " << seed << " exit " << child.exit_code;

      // Leader: ordinary post-crash contract.
      const Verdict lv =
          VerifyRecovered(env_, leader_dir, workload, child.acked);
      ASSERT_TRUE(lv.ok) << schedule << " leader: " << lv.detail;

      // Follower: its recovered state must be SOME reference prefix —
      // replication preserves leader order, a duplicate apply past
      // replicated_through or a skipped record breaks byte identity.
      auto frec = RecoverBurstEngine<Pbe1>(env_, follower_dir,
                                           torture::TortureEngineOptions());
      ASSERT_TRUE(frec.ok()) << schedule
                             << " follower recovery: "
                             << frec.status().ToString();
      const uint64_t m = frec.value().TotalCount();
      ASSERT_LE(m, lv.recovered_k) << "follower ahead of recovered leader";
      EXPECT_EQ(torture::EngineBytes(frec.value()),
                torture::ReferenceBytes(workload, static_cast<size_t>(m)))
          << schedule << " follower not a reference prefix (M=" << m << ")";

      // Converge: finish the leader, re-ship, and require the
      // promoted follower to end byte-identical to the full
      // reference.
      auto leader_or = DurableBurstEngine<Pbe1>::Open(
          env_, leader_dir, torture::TortureEngineOptions(),
          torture::TortureDurability());
      ASSERT_TRUE(leader_or.ok()) << leader_or.status().ToString();
      auto leader = std::move(leader_or).value();
      for (size_t i = static_cast<size_t>(leader->engine().TotalCount());
           i < workload.size(); ++i) {
        ASSERT_TRUE(leader->Append(workload[i].id, workload[i].time).ok());
      }
      ASSERT_TRUE(leader->Sync().ok());
      // Convergence target: the stamped end of the LAST RECORD in the
      // leader log. wal_position() would be wrong whenever the log
      // ends in a freshly-rotated empty segment (rotation on the
      // final append, or reopen with nothing left to append) — no
      // shipped record ever carries that position.
      const WalPosition end = [&] {
        auto seqs = ListWalSegments(env_, leader_dir);
        EXPECT_TRUE(seqs.ok() && !seqs.value().empty());
        WalPosition last{};
        auto replay = ReplayWal(
            env_, leader_dir, WalPosition{seqs.value().front(), 0},
            [&last](WalRecordType, const uint8_t*, size_t,
                    const WalPosition& rec_end) {
              last = rec_end;
              return Status::OK();
            });
        EXPECT_TRUE(replay.ok()) << replay.status().ToString();
        return last;
      }();

      repl::WalShipper shipper;
      repl::WalShipperOptions ship_opts;
      ship_opts.poll_interval_ms = 2;
      ship_opts.heartbeat_interval_ms = 25;
      std::mutex mu;
      auto* leader_raw = leader.get();
      ASSERT_TRUE(shipper
                      .Start(env_, leader_dir, ship_opts,
                             [leader_raw, &mu] {
                               std::lock_guard<std::mutex> lock(mu);
                               return repl::LeaderStatus{
                                   leader_raw->wal_position(),
                                   leader_raw->engine().Watermark()};
                             })
                      .ok());
      repl::ReplicaOptions rep_opts;
      rep_opts.leader_port = shipper.port();
      rep_opts.recv_timeout_ms = 10;
      rep_opts.dead_after_ms = 1000;
      rep_opts.backoff_initial_ms = 2;
      rep_opts.backoff_max_ms = 40;
      rep_opts.backoff_seed = seed + 99;
      auto replica_or = repl::ReplicaEngine<Pbe1>::Open(
          env_, follower_dir, torture::TortureEngineOptions(),
          torture::TortureDurability(), rep_opts);
      ASSERT_TRUE(replica_or.ok()) << replica_or.status().ToString();
      auto replica = std::move(replica_or).value();
      ASSERT_TRUE(replica->Start().ok());
      bool caught_up = false;
      for (int waited = 0; waited < 30000 && !caught_up; waited += 5) {
        caught_up = replica->applied_position() == end;
        if (!caught_up) ::usleep(5000);
      }
      const WalPosition at = replica->applied_position();
      ASSERT_TRUE(caught_up)
          << schedule << " follower never converged: applied={"
          << at.seq << "," << at.offset << "} end={" << end.seq << ","
          << end.offset << "} connected=" << replica->connected()
          << " leader_k=" << leader->engine().TotalCount();
      shipper.Stop();
      ASSERT_TRUE(replica->Promote().ok());
      EXPECT_EQ(torture::EngineBytes(replica->durable()->engine()),
                torture::ReferenceBytes(workload, workload.size()))
          << schedule << " promoted follower diverged from full reference";
    }
  }
}

#endif  // BURSTHIST_NO_FAULT

}  // namespace
}  // namespace test
}  // namespace bursthist
