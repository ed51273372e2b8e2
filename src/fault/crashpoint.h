// Named crashpoints: a process-wide fault scheduler for torture
// testing the durable paths with REAL process deaths.
//
// Instrumented code marks the instants a crash would be most damaging:
//
//   Status WalWriter::AddRecordBatch(...) {
//     ...
//     BURSTHIST_CRASHPOINT("wal.append.post_write");
//     ...
//   }
//
// A schedule — armed through the API (torture harness) or the
// BURSTHIST_CRASHPOINTS environment variable (external drivers) —
// names a site, an action, and the 1-based hit count at which to act:
//
//   kKill   raise SIGKILL: the hard process death fsync ordering and
//           rename atomicity exist for. No destructors, no flushes.
//   kError  return an injected kIOError from the enclosing function,
//           exercising the same error paths a flaky device would.
//   kDelay  sleep, widening crash windows for concurrent chaos.
//
// The macro's fast path is one relaxed atomic load; a build with
// BURSTHIST_NO_FAULT compiles every site to nothing at all (CI
// asserts the site strings vanish from the binaries).
//
// Scheduling spec grammar (comma-separated rules):
//
//   site=kill@3          SIGKILL on the 3rd hit of `site`
//   site=error           injected error on the 1st hit
//   site=delay:50@2      sleep 50 ms on the 2nd hit
//
// Trace mode records every site the process reaches (with hit counts)
// without acting — the torture harness's recon pass uses it to
// enumerate the sweep matrix instead of trusting a hand-kept list.

#ifndef BURSTHIST_FAULT_CRASHPOINT_H_
#define BURSTHIST_FAULT_CRASHPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace bursthist {
namespace fault {

enum class FaultAction : uint8_t {
  kKill = 0,
  kError = 1,
  kDelay = 2,
};

/// One armed rule: act when the named site's hit counter reaches
/// `hit` (1-based).
struct FaultRule {
  FaultAction action = FaultAction::kError;
  uint64_t hit = 1;
  int delay_ms = 0;
};

/// Process-wide singleton the BURSTHIST_CRASHPOINT macro consults.
/// Thread-safe; survives fork (the child inherits the schedule and
/// re-arms as it pleases).
class FaultScheduler {
 public:
  static FaultScheduler& Global();

  /// True when any rule is armed or trace mode is on — the macro's
  /// one-load fast path. Relaxed is enough: arming happens-before the
  /// workload in every supported pattern (same thread, or before
  /// thread/process start).
  static bool armed() { return armed_flag_.load(std::memory_order_relaxed); }

  /// Arms (or replaces) one rule. Resets that site's hit counter so
  /// back-to-back sweeps over the same process see fresh counts.
  void Arm(const std::string& site, FaultAction action, uint64_t hit = 1,
           int delay_ms = 0);

  /// Parses and arms a full schedule spec (see file comment). Any
  /// parse error leaves the scheduler unchanged.
  Status LoadSchedule(const std::string& spec);

  /// Loads BURSTHIST_CRASHPOINTS when set; no-op when unset.
  Status LoadFromEnv();

  /// Drops every rule, hit counter, and trace record; trace off.
  void Disarm();

  /// Trace mode: record reached sites (and their hit counts) without
  /// acting. Composes with armed rules.
  void EnableTrace(bool on);

  /// Sites reached since the last Disarm, with total hit counts,
  /// sorted by site name. Requires trace mode (or armed rules — armed
  /// sites count their hits too).
  std::vector<std::pair<std::string, uint64_t>> ReachedSites();

  /// Total hits recorded for one site (0 if never reached).
  uint64_t HitCount(const std::string& site);

  /// The macro's slow path: counts the hit and fires the matching
  /// rule. kKill does not return. kError returns the injected status;
  /// otherwise OK.
  Status Hit(const char* site);

 private:
  FaultScheduler() = default;

  void RecomputeArmed();  // holding mu_

  static std::atomic<bool> armed_flag_;

  std::mutex mu_;
  std::map<std::string, FaultRule> rules_;
  std::map<std::string, uint64_t> hits_;
  bool trace_ = false;
};

}  // namespace fault
}  // namespace bursthist

#ifdef BURSTHIST_NO_FAULT
#define BURSTHIST_CRASHPOINT(site) \
  do {                             \
  } while (0)
#else
// `return` on injected error: only valid inside functions returning
// Status or Result<T> — exactly where the durable path's crash
// windows live.
#define BURSTHIST_CRASHPOINT(site)                                      \
  do {                                                                  \
    if (::bursthist::fault::FaultScheduler::armed()) {                  \
      ::bursthist::Status _bursthist_cp_st =                            \
          ::bursthist::fault::FaultScheduler::Global().Hit(site);       \
      if (!_bursthist_cp_st.ok()) return _bursthist_cp_st;              \
    }                                                                   \
  } while (0)
#endif

#endif  // BURSTHIST_FAULT_CRASHPOINT_H_
