// Resource governor: memory budgets and the degradation ladder.
//
// The paper's structures are sketches — they trade accuracy for space
// by construction — but nothing in the core library bounds what the
// *process* spends: PBE-1 buffers grow until compression, the engine's
// re-order buffer grows with lateness skew, and per-event curves
// accumulate for as long as the history runs. The governor closes that
// loop. Components register a usage probe and a shed hook; the
// governor audits the roll-up against a soft/hard byte budget and,
// when the soft budget is crossed, walks a *graceful degradation
// ladder* instead of aborting:
//
//   level 0 (kNormal)    usage <= soft budget; nothing to do.
//   level 1 (kShedding)  soft crossed: one shed round — PBE-2 cells
//                        widen their gamma band for new segments,
//                        PBE-1 cells compact their buffers early.
//   level 2 (kSaturated) hard crossed: shed rounds repeat (bounded)
//                        and, if usage still exceeds the hard budget,
//                        admission fails with ResourceExhausted until
//                        load drops.
//
// Writers go through one call, AdmitBatch(), which owns the audit
// cadence and the refuse-after-one-more-audit protocol.
//
// Degradation is *honest*: every shed widens the error bound the
// structures themselves report (Pbe1::PointErrorBound,
// Pbe2::MaxGamma), so query answers always carry the effective bound
// actually in force (the served reply's bound= stamp) — accuracy is
// surrendered, correctness is not.

#ifndef BURSTHIST_GOVERNOR_RESOURCE_GOVERNOR_H_
#define BURSTHIST_GOVERNOR_RESOURCE_GOVERNOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace bursthist {

/// Byte budgets for one governed engine. 0 means unlimited (that
/// threshold never trips). soft_bytes <= hard_bytes when both are set.
struct ResourceBudget {
  /// Crossing this starts the degradation ladder (shedding accuracy
  /// for space). The process keeps accepting records.
  size_t soft_bytes = 0;
  /// Crossing this — after shedding — makes admission fail with
  /// Status::ResourceExhausted. Audits are amortized (AdmitBatch), so
  /// usage can overshoot hard_bytes by at most one audit window's
  /// growth: what the records admitted between two audits add, i.e.
  /// kAuditEveryRecords records or one admitted batch, whichever is
  /// larger. That growth is not capped in bytes: a vector capacity
  /// doubling inside the window lands whole.
  size_t hard_bytes = 0;
};

/// Where on the degradation ladder the governor currently stands.
enum class DegradationLevel : uint8_t {
  kNormal = 0,     ///< Under the soft budget.
  kShedding = 1,   ///< Soft budget crossed; accuracy being shed.
  kSaturated = 2,  ///< Hard budget crossed; admission refused.
};

/// Human-readable level name ("Normal", "Shedding", "Saturated").
const char* DegradationLevelName(DegradationLevel level);

/// One registered component's audited usage (AuditComponents).
struct ComponentUsage {
  std::string name;
  size_t bytes = 0;
};

/// Tracks registered components against a ResourceBudget and drives
/// the degradation ladder. Not thread-safe: the governor audits the
/// same single-writer structures it governs.
class ResourceGovernor {
 public:
  /// Reports the component's current resident bytes.
  using UsageFn = std::function<size_t()>;
  /// Sheds memory, widening error bounds by at most `widen_factor`
  /// (PBE-2 gamma bands multiply by it; PBE-1 compaction ignores it —
  /// it costs flush boundaries, not bound width).
  using ShedFn = std::function<void(double widen_factor)>;

  explicit ResourceGovernor(const ResourceBudget& budget,
                            double widen_factor = 2.0);

  /// Registers a component. Both hooks must outlive the governor.
  void RegisterComponent(std::string name, UsageFn usage, ShedFn shed);

  /// Sums every component's usage probe (an audit walk; costs a scan
  /// of the governed structures, so callers amortize via Enforce()).
  size_t TotalUsage() const;

  /// Audits usage and walks the ladder: crossing the soft budget runs
  /// one shed round; crossing the hard budget repeats shed rounds (at
  /// most kMaxShedRounds per call) until usage drops below it or the
  /// rounds are spent. Returns the resulting level, which Admit()
  /// then enforces against the cached audit.
  DegradationLevel Enforce();

  /// Admission control against the *last audited* usage (cheap; no
  /// probe walk). Returns ResourceExhausted iff the hard budget is
  /// set and last_audit_bytes() exceeds it.
  Status Admit() const;

  /// The write path's admission: call once before writing a batch of
  /// `records` records. Audits (Enforce) first when the batch would
  /// take the records admitted since the last audit past
  /// kAuditEveryRecords (the first call always audits), then admits
  /// against the audit; a refusal re-audits once before it stands, so
  /// shedding always precedes refusal and a saturated governor
  /// re-admits as soon as pressure clears. On OK the batch counts
  /// toward the next audit.
  Status AdmitBatch(size_t records);

  /// The level Enforce() last returned.
  DegradationLevel level() const { return level_; }

  /// Usage at the last Enforce() audit.
  size_t last_audit_bytes() const { return last_audit_bytes_; }

  /// Total shed rounds executed (each round calls every component's
  /// shed hook once).
  uint64_t shed_rounds() const { return shed_rounds_; }

  /// Enforce() calls made (audit count).
  uint64_t audits() const { return audits_; }

  const ResourceBudget& budget() const { return budget_; }

  /// Per-component usage breakdown (one probe walk).
  std::vector<ComponentUsage> AuditComponents() const;

  /// Shed rounds one Enforce() call may run when the hard budget is
  /// crossed; bounds the latency spike of a saturated audit.
  static constexpr int kMaxShedRounds = 4;

  /// Records AdmitBatch() admits between two audits; one larger batch
  /// fills a window by itself.
  static constexpr size_t kAuditEveryRecords = 128;

 private:
  struct Component {
    std::string name;
    UsageFn usage;
    ShedFn shed;
  };

  void ShedRound();

  ResourceBudget budget_;
  double widen_factor_;
  std::vector<Component> components_;
  DegradationLevel level_ = DegradationLevel::kNormal;
  size_t last_audit_bytes_ = 0;
  // Starts full, so the first AdmitBatch() audits before admitting.
  size_t admitted_since_audit_ = kAuditEveryRecords;
  uint64_t shed_rounds_ = 0;
  uint64_t audits_ = 0;
};

}  // namespace bursthist

#endif  // BURSTHIST_GOVERNOR_RESOURCE_GOVERNOR_H_
