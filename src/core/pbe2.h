// PBE-2: persistent burstiness estimation without buffering
// (Section III-B of the paper).
//
// The estimator feeds the augmented corner points of the cumulative
// frequency curve into the online PLA builder as they materialize —
// O(1) amortized work per element and no buffering beyond the single
// in-progress corner (whose count is only final once a later timestamp
// arrives). The resulting piecewise-linear model satisfies
// F(t) - gamma <= F~(t) <= F(t) at every discrete timestamp, hence
// |b~(t) - b(t)| <= 4 * gamma (Lemma 4).

#ifndef BURSTHIST_CORE_PBE2_H_
#define BURSTHIST_CORE_PBE2_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "pla/linear_model.h"
#include "pla/online_pla.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// Construction parameters for Pbe2.
struct Pbe2Options {
  /// Per-point error band gamma (>= 0): the model may undershoot F(t)
  /// by at most gamma and never overshoots.
  double gamma = 8.0;

  /// Optional cap on the feasible polygon's vertex count (the paper's
  /// space-constrained variant); 0 = unlimited.
  size_t max_polygon_vertices = 0;

  /// Optional soft space budget in bytes: once the stored segments
  /// outgrow it, gamma doubles for future windows (the error
  /// guarantee becomes 4 * MaxGamma()). 0 = fixed gamma.
  size_t target_bytes = 0;
};

/// Online persistent burstiness estimator for a single event stream.
///
/// Usage mirrors Pbe1: Append() in non-decreasing time order, then
/// Finalize() before estimate queries.
class Pbe2 {
 public:
  using Options = Pbe2Options;

  /// False: F~ is piecewise-linear, so b~ varies linearly between
  /// breakpoints.
  static constexpr bool kPiecewiseConstant = false;

  explicit Pbe2(const Options& options = Options());

  /// Adds `count` occurrences at time t (t >= last appended time).
  /// Must not be called after Finalize().
  void Append(Timestamp t, Count count = 1);

  /// Flushes the pending corner point and the open PLA window.
  /// Idempotent.
  void Finalize();

  /// True once Finalize() ran; estimate queries require it.
  bool finalized() const { return finalized_; }

  /// F~(t). Precondition: finalized().
  double EstimateCumulative(Timestamp t) const;

  /// b~(t). Precondition: finalized().
  double EstimateBurstiness(Timestamp t, Timestamp tau) const;

  /// Breakpoints of the piecewise-linear model. Precondition:
  /// finalized().
  std::vector<Timestamp> Breakpoints() const;

  /// Total occurrences ingested (N).
  Count TotalCount() const { return running_count_; }

  /// Stored PLA segments — the structure's space driver.
  size_t SegmentCount() const { return builder_.model().size(); }

  /// The *configured* band; the bound in force is 4 * MaxGamma(),
  /// which may be wider after target_bytes escalation or WidenGamma().
  double gamma() const { return options_.gamma; }

  /// Widens the error band for future constraint points by `factor`
  /// (>= 1), the governor's deliberate form of the target_bytes
  /// escalation: wider bands make windows live longer, throttling
  /// segment production. The guarantee degrades honestly to
  /// 4 * MaxGamma(), which reports the widened band. A zero band
  /// widens to `factor` itself (mirroring the escalation's 0 -> 1
  /// step). Widening saturates at the curve's current total count —
  /// beyond that the band already admits a single-segment model, so
  /// repeated sheds under a sustained deficit keep the reported bound
  /// data-scaled instead of diverging. No-op on a finalized estimator.
  void WidenGamma(double factor);

  /// Degradation hook with the uniform cell signature (see
  /// CmPbe::Degrade): PBE-2 sheds by widening gamma.
  void Degrade(double gamma_factor) { WidenGamma(gamma_factor); }

  /// MaxGamma() under its duck-typed name: the per-cell "Delta or
  /// gamma" bound read uniformly from Pbe1 and Pbe2.
  double PointErrorBound() const { return MaxGamma(); }

  /// Largest band used by any window (== gamma() unless a space
  /// budget escalated it); |b~ - b| <= 4 * MaxGamma().
  double MaxGamma() const {
    return std::max(options_.gamma, builder_.max_gamma());
  }

  /// Bytes of retained state (segments).
  size_t SizeBytes() const;

  /// Resident bytes including object, segment-capacity, and live
  /// feasible-polygon overheads.
  size_t MemoryUsage() const;

  /// Serializes the estimator. A live (unfinalized) estimator is
  /// written as a finalized snapshot marked live: the open PLA window
  /// is flushed into the model (costing at most one extra segment,
  /// like any early window restart) and the restored estimator keeps
  /// accepting appends with a restarted window — the gamma guarantee
  /// is unaffected, but the model is not byte-identical to one that
  /// was never serialized.
  void Serialize(BinaryWriter* w) const;

  /// Replaces this estimator with the serialized state (including the
  /// widened-gamma history, so the restored bound matches); returns
  /// Corruption on a malformed payload.
  Status Deserialize(BinaryReader* r);

 private:
  // Pushes the pending corner (and its pre-rise augmentation point)
  // into the PLA builder.
  void FlushPending();

  // Writes the payload of a finalized estimator, marking the blob
  // live (finalized = 0) when requested.
  void SerializeFrozen(BinaryWriter* w, bool as_finalized) const;

  Options options_;
  OnlinePlaBuilder builder_;

  // In-progress corner point: arrivals at the same timestamp merge
  // into it; it is fed to the builder once a later timestamp arrives.
  bool has_pending_ = false;
  CurvePoint pending_{0, 0};
  // Last corner actually fed to the builder (source of the pre-rise
  // augmentation level).
  bool has_flushed_ = false;
  CurvePoint last_flushed_{0, 0};

  Count running_count_ = 0;
  bool finalized_ = false;
};

}  // namespace bursthist

#endif  // BURSTHIST_CORE_PBE2_H_
