// Online piecewise-linear approximation of a staircase curve with a
// per-point error band (Section III-B, Algorithm 2 of the paper).
//
// The builder consumes the *augmented* corner points of F(t) one at a
// time. Each point (t_j, F_j) constrains the current line to pass
// through the vertical range [F_j - gamma, F_j]; the set of feasible
// (slope, intercept) pairs is a convex polygon in dual space,
// maintained incrementally. When a new point empties the polygon, a
// segment is emitted (any feasible point of the previous polygon — we
// use the centroid) and a fresh window starts at that point.
//
// Guarantee: at every constrained time t,
//   F(t) - gamma <= F~(t) <= F(t),
// and with the augmentation of FrequencyCurve::AugmentedPoints() this
// extends to every discrete timestamp, giving |b~ - b| <= 4*gamma
// (Lemma 4).

#ifndef BURSTHIST_PLA_ONLINE_PLA_H_
#define BURSTHIST_PLA_ONLINE_PLA_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "geom/convex_polygon.h"
#include "pla/linear_model.h"
#include "stream/frequency_curve.h"
#include "stream/types.h"

namespace bursthist {

/// Streaming PLA builder. Feed strictly-increasing-time corner points
/// via AddPoint(); call Finish() to flush the open window.
class OnlinePlaBuilder {
 public:
  /// @param gamma   maximum allowed underestimate at any point (>= 0).
  /// @param max_polygon_vertices  optional hard cap on the feasible
  ///        polygon's complexity; on overflow the window is closed, as
  ///        the paper's space-constrained variant does. 0 = unlimited.
  /// @param target_bytes  optional soft space budget: whenever the
  ///        emitted model exceeds it, gamma doubles for subsequent
  ///        windows, throttling segment production (the guarantee
  ///        degrades gracefully to the final max_gamma()). 0 = off.
  explicit OnlinePlaBuilder(double gamma, size_t max_polygon_vertices = 0,
                            size_t target_bytes = 0);

  /// Adds the next constraint point (time must be strictly greater
  /// than the previous point's).
  void AddPoint(Timestamp t, Count count);

  /// Flushes the open window into a final segment.
  void Finish();

  /// The model built so far (complete only after Finish()).
  const LinearModel& model() const { return model_; }
  LinearModel TakeModel() { return std::move(model_); }

  /// Replaces the built model (deserialization of a frozen stream).
  /// Precondition: no window is open.
  void RestoreModel(LinearModel model) {
    assert(!window_open_);
    model_ = std::move(model);
  }

  /// Widens the error band for subsequent constraint points to
  /// max(gamma(), gamma) — the deliberate (governor-driven) form of
  /// the target_bytes escalation. Safe mid-window: the feasible
  /// polygon is the intersection of per-point bands, so points already
  /// clipped keep their narrower band and every constrained point
  /// still satisfies F(t) - max_gamma() <= F~(t) <= F(t).
  void WidenBand(double gamma) {
    if (gamma > gamma_) gamma_ = gamma;
    if (gamma_ > max_gamma_) max_gamma_ = gamma_;
  }

  /// Resident bytes including vector capacity and the live feasible
  /// polygon (SizeBytes()-style accounting covers only emitted
  /// segments).
  size_t MemoryUsage() const {
    return sizeof(*this) +
           model_.segments().capacity() * sizeof(PlaSegment) +
           polygon_.vertices().capacity() * sizeof(Point2);
  }

  /// Number of segments emitted so far.
  size_t segment_count() const { return model_.size(); }

  /// The current (possibly budget-escalated) error band, and the
  /// largest band any emitted segment was built with — the value the
  /// 4*gamma guarantee holds for.
  double gamma() const { return gamma_; }
  double max_gamma() const { return max_gamma_; }

 private:
  struct PendingPoint {
    Timestamp t;
    Count count;
  };

  // Emits a segment for the current window using the last feasible
  // polygon (or the single-point fallback) and clears the window.
  void EmitWindow();

  // The two dual half-planes of a constraint point, in window-local
  // time (t - window_start_).
  HalfPlane UpperConstraint(Timestamp t, Count count) const;
  HalfPlane LowerConstraint(Timestamp t, Count count) const;

  double gamma_;
  double max_gamma_;
  size_t max_vertices_;
  size_t target_bytes_;
  LinearModel model_;

  // Current window state.
  bool window_open_ = false;
  Timestamp window_start_ = 0;
  PendingPoint first_;       // first constraint of the window
  PendingPoint last_;        // most recent accepted constraint
  size_t window_points_ = 0;
  ConvexPolygon polygon_;    // valid once window_points_ >= 2
};

/// Convenience: runs the builder over the augmented points of an exact
/// curve and returns the model.
LinearModel BuildPla(const FrequencyCurve& curve, double gamma,
                     size_t max_polygon_vertices = 0);

/// Ablation hook: same, but feeding the raw (non-augmented) corner
/// points. This is the construction WITHOUT the paper's extra
/// error-bounding points; it may overestimate F between corners.
LinearModel BuildPlaNoAugmentation(const FrequencyCurve& curve, double gamma,
                                   size_t max_polygon_vertices = 0);

}  // namespace bursthist

#endif  // BURSTHIST_PLA_ONLINE_PLA_H_
