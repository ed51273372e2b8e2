// Crashpoint torture harness: REAL process-kill recovery testing.
//
// The harness shared by tests/crash_torture_test.cpp (ctest entry)
// and tools/crash_torture (standalone driver). One torture cycle is:
//
//   1. fork() a child;
//   2. the child arms a crashpoint schedule (site, action, hit count
//      — see fault/crashpoint.h), opens a DurableBurstEngine on the
//      scratch directory, and ingests a seeded diff-harness stream,
//      acknowledging each accepted append by appending one byte to an
//      ack file (a raw O_APPEND write(2), so the ack itself survives
//      the kill);
//   3. the scheduled SIGKILL lands mid-durability-protocol — no
//      destructors, no flushes: the death fsync ordering and rename
//      atomicity exist for;
//   4. the parent recovers the directory and verifies the recovery
//      CONTRACT, then resumes the workload to completion and verifies
//      full convergence.
//
// The contract, precisely:
//
//   acked <= K <= n      K = recovered TotalCount, acked = ack-file
//                        size. Acked records were written before the
//                        ack byte, and a completed write(2) survives
//                        SIGKILL — so acked is a LOWER bound; the kill
//                        can land between a record's write and its
//                        ack, so K may legitimately exceed acked.
//   byte identity        the recovered engine serializes to exactly
//                        the bytes of a reference engine fed the
//                        first K workload records. BurstEngine<Pbe1>
//                        state is a deterministic function of its
//                        append sequence, so this is the strongest
//                        form of query-identical (the idiom of
//                        fault_injection_test).
//   convergence          reopening the directory and appending the
//                        remaining workload must succeed and end
//                        byte-identical to the full-workload
//                        reference — recovery left no hidden damage.
//
// Sweep enumeration never trusts a hand-kept site list: a RECON pass
// first runs the workload in-process under trace mode and asks the
// scheduler which sites were actually reached, with hit counts. The
// sweep then kills at every (site, hit-variant, seed) — a site that
// silently stops being exercised shrinks the printed matrix, which
// the CI job asserts against a minimum.

#ifndef BURSTHIST_TESTS_DIFFERENTIAL_TORTURE_HARNESS_H_
#define BURSTHIST_TESTS_DIFFERENTIAL_TORTURE_HARNESS_H_

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "fault/crashpoint.h"
#include "recovery/durable_engine.h"
#include "util/env.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {
namespace test {
namespace torture {

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// One torture workload: a seeded diff-harness stream plus the
/// child's checkpoint/batch choreography. Everything is derived from
/// `seed`, so a cycle is reproducible from (seed, schedule) alone.
struct TortureSpec {
  uint64_t seed = 1;
  size_t n = 320;
  /// Checkpoint after this many appends (0 = never). Drives the
  /// checkpoint.* and snapshot.* crash windows.
  size_t checkpoint_every = 90;
  /// One AppendBatch of `batch_len` records starting at this index
  /// (batch_len = 0 disables). Drives the wal.append.* window with a
  /// whole batch in one write; the batch path is byte-identical to
  /// per-record appends (see batch_identity_test), so the reference
  /// always applies records one by one.
  size_t batch_at = 150;
  size_t batch_len = 24;
};

inline BurstEngineOptions<Pbe1> TortureEngineOptions() {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 8;
  o.grid.depth = 1;
  o.grid.width = 8;
  o.cell.buffer_points = 16;
  o.cell.budget_points = 4;
  return o;
}

/// Tiny segments so the workload crosses many rotations — every
/// rotation is a crash window.
inline DurabilityOptions TortureDurability() {
  DurabilityOptions d;
  d.wal_segment_bytes = 4 << 10;
  return d;
}

/// The stream, time-sorted so any prefix is ingestible and the parent
/// can always resume from index K. Family varies with the seed.
inline std::vector<EventRecord> TortureWorkload(const TortureSpec& spec) {
  StreamSpec s;
  // kOutOfOrder excluded: the sort below erases its point anyway.
  s.family = static_cast<StreamFamily>(spec.seed % 4);
  s.universe = 8;
  s.n = spec.n;
  s.seed = spec.seed;
  auto arrivals = GenerateArrivals(s);
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.time < b.time;
                   });
  return arrivals;
}

inline std::vector<uint8_t> EngineBytes(const BurstEngine<Pbe1>& engine) {
  BinaryWriter w;
  engine.Serialize(&w);
  return w.TakeBytes();
}

/// Serialized reference engine fed the first `k` workload records.
inline std::vector<uint8_t> ReferenceBytes(
    const std::vector<EventRecord>& workload, size_t k) {
  BurstEngine<Pbe1> ref(TortureEngineOptions());
  for (size_t i = 0; i < k; ++i) {
    if (!ref.Append(workload[i].id, workload[i].time).ok()) return {};
  }
  return EngineBytes(ref);
}

// ---------------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------------

/// Child exit codes (SIGKILL deaths have no exit code — the parent
/// reads WIFSIGNALED instead).
inline constexpr int kChildCompleted = 0;
inline constexpr int kChildInjectedError = 42;
inline constexpr int kChildSetupFailure = 43;

/// Acknowledges `count` accepted appends: one raw byte each, written
/// before the next append begins.
inline void AckAppends(int fd, size_t count) {
  static const char kDots[64] = {};
  while (count > 0) {
    const size_t chunk = std::min(count, sizeof(kDots));
    if (::write(fd, kDots, chunk) < 0) ::_exit(kChildSetupFailure);
    count -= chunk;
  }
}

/// The child's workload: open (recover) the directory, resume the
/// seeded stream from wherever recovery left it, checkpointing and
/// batching per the spec. Returns the exit code; a kill-mode
/// crashpoint never returns. `ack_fd` < 0 disables acking (the
/// in-process recon pass).
inline int RunTortureWorkload(Env* env, const std::string& dir, int ack_fd,
                              const TortureSpec& spec) {
  const std::vector<EventRecord> workload = TortureWorkload(spec);
  auto durable_or = DurableBurstEngine<Pbe1>::Open(
      env, dir, TortureEngineOptions(), TortureDurability());
  // An injected error during open/recovery ends the "process" the
  // same way a real flaky disk would.
  if (!durable_or.ok()) return kChildInjectedError;
  auto durable = std::move(durable_or).value();

  size_t i = static_cast<size_t>(durable->engine().TotalCount());
  if (i > workload.size()) return kChildSetupFailure;
  size_t next_checkpoint =
      spec.checkpoint_every == 0 ? workload.size() + 1
                                 : i + spec.checkpoint_every;
  while (i < workload.size()) {
    if (i >= next_checkpoint) {
      if (!durable->Checkpoint().ok()) return kChildInjectedError;
      next_checkpoint += spec.checkpoint_every;
    }
    if (spec.batch_len > 0 && i == spec.batch_at &&
        i + spec.batch_len <= workload.size()) {
      std::vector<WeightedRecord> batch;
      batch.reserve(spec.batch_len);
      for (size_t j = i; j < i + spec.batch_len; ++j) {
        batch.push_back(WeightedRecord{workload[j].id, workload[j].time, 1});
      }
      size_t applied = 0;
      const Status st = durable->AppendBatch(batch, &applied);
      if (ack_fd >= 0) AckAppends(ack_fd, applied);
      i += applied;
      if (!st.ok()) return kChildInjectedError;
      if (applied != spec.batch_len) return kChildSetupFailure;
    } else {
      if (!durable->Append(workload[i].id, workload[i].time).ok()) {
        return kChildInjectedError;
      }
      if (ack_fd >= 0) AckAppends(ack_fd, 1);
      ++i;
    }
  }
  if (!durable->Sync().ok()) return kChildInjectedError;
  return kChildCompleted;
}

// ---------------------------------------------------------------------------
// Recon: enumerate reachable crashpoints
// ---------------------------------------------------------------------------

/// Runs the workload in-process under trace mode on a scratch
/// directory and returns every crashpoint reached with its total hit
/// count — the sweep matrix, derived from reality instead of a
/// hand-kept list. The directory must be empty; it is left dirty for
/// the caller to clean.
inline std::vector<std::pair<std::string, uint64_t>> ReconSites(
    Env* env, const std::string& dir, const TortureSpec& spec) {
  auto& sched = fault::FaultScheduler::Global();
  sched.Disarm();
  sched.EnableTrace(true);
  (void)RunTortureWorkload(env, dir, -1, spec);
  auto sites = sched.ReachedSites();
  sched.Disarm();
  return sites;
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

struct ChildOutcome {
  bool killed = false;  ///< died by SIGKILL (the scheduled crash)
  int exit_code = -1;   ///< valid when !killed
  size_t acked = 0;     ///< ack bytes that reached the file
};

/// Forks and runs the torture workload in a child under `schedule`.
/// The caller must not hold live engine objects or extra threads —
/// fork() only clones the calling thread.
inline ChildOutcome ForkTortureChild(const std::string& dir,
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
      ::_exit(kChildSetupFailure);
    }
    const int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (ack_fd < 0) ::_exit(kChildSetupFailure);
    ::_exit(RunTortureWorkload(Env::Default(), dir, ack_fd, spec));
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

struct Verdict {
  bool ok = true;
  uint64_t recovered_k = 0;
  std::string detail;

  static Verdict Fail(std::string why) { return Verdict{false, 0, std::move(why)}; }
};

/// The post-crash recovery contract: acked <= K <= n and byte
/// identity with the reference prefix of K records.
inline Verdict VerifyRecovered(Env* env, const std::string& dir,
                               const std::vector<EventRecord>& workload,
                               size_t acked) {
  auto rec = RecoverBurstEngine<Pbe1>(env, dir, TortureEngineOptions());
  if (!rec.ok()) {
    return Verdict::Fail("recovery failed: " + rec.status().ToString());
  }
  Verdict v;
  v.recovered_k = rec.value().TotalCount();
  if (v.recovered_k > workload.size()) {
    return Verdict::Fail("recovered K=" + std::to_string(v.recovered_k) +
                         " exceeds workload n=" +
                         std::to_string(workload.size()));
  }
  if (v.recovered_k < acked) {
    return Verdict::Fail("lost acknowledged records: K=" +
                         std::to_string(v.recovered_k) + " < acked=" +
                         std::to_string(acked));
  }
  const auto got = EngineBytes(rec.value());
  const auto want =
      ReferenceBytes(workload, static_cast<size_t>(v.recovered_k));
  if (want.empty() || got != want) {
    return Verdict::Fail("recovered state not byte-identical to reference "
                         "prefix K=" +
                         std::to_string(v.recovered_k));
  }
  return v;
}

/// Convergence: reopen the directory, append the remaining workload,
/// checkpoint, and require byte identity with the full-workload
/// reference — the crash left no hidden damage behind.
inline Verdict FinishAndVerify(Env* env, const std::string& dir,
                               const std::vector<EventRecord>& workload) {
  auto durable_or = DurableBurstEngine<Pbe1>::Open(
      env, dir, TortureEngineOptions(), TortureDurability());
  if (!durable_or.ok()) {
    return Verdict::Fail("reopen failed: " + durable_or.status().ToString());
  }
  auto durable = std::move(durable_or).value();
  size_t i = static_cast<size_t>(durable->engine().TotalCount());
  if (i > workload.size()) {
    return Verdict::Fail("reopened K exceeds workload");
  }
  for (; i < workload.size(); ++i) {
    const Status st = durable->Append(workload[i].id, workload[i].time);
    if (!st.ok()) {
      return Verdict::Fail("resume append " + std::to_string(i) +
                           " failed: " + st.ToString());
    }
  }
  if (Status st = durable->Checkpoint(); !st.ok()) {
    return Verdict::Fail("final checkpoint failed: " + st.ToString());
  }
  Verdict v;
  v.recovered_k = durable->engine().TotalCount();
  const auto got = EngineBytes(durable->engine());
  const auto want = ReferenceBytes(workload, workload.size());
  if (want.empty() || got != want) {
    return Verdict::Fail("converged state not byte-identical to full "
                         "reference");
  }
  return v;
}

/// One full torture cycle against an empty directory: fork, crash,
/// recover + verify, resume + verify.
inline Verdict RunTortureCycle(Env* env, const std::string& dir,
                               const std::string& ack_path,
                               const std::string& schedule,
                               const TortureSpec& spec) {
  const auto workload = TortureWorkload(spec);
  const ChildOutcome child = ForkTortureChild(dir, ack_path, schedule, spec);
  if (!child.killed && child.exit_code != kChildCompleted &&
      child.exit_code != kChildInjectedError) {
    return Verdict::Fail("child failed outside the schedule: exit=" +
                         std::to_string(child.exit_code));
  }
  Verdict v = VerifyRecovered(env, dir, workload, child.acked);
  if (!v.ok) {
    v.detail += " [schedule=" + schedule +
                " seed=" + std::to_string(spec.seed) +
                " acked=" + std::to_string(child.acked) +
                (child.killed ? " killed" : " exit=" +
                                            std::to_string(child.exit_code)) +
                "]";
    return v;
  }
  Verdict conv = FinishAndVerify(env, dir, workload);
  if (!conv.ok) {
    conv.detail += " [schedule=" + schedule +
                   " seed=" + std::to_string(spec.seed) + "]";
  }
  return conv;
}

}  // namespace torture
}  // namespace test
}  // namespace bursthist

#endif  // BURSTHIST_TESTS_DIFFERENTIAL_TORTURE_HARNESS_H_
