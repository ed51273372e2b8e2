// Piecewise-linear approximation model: what PBE-2 stores
// (Section III-B of the paper).
//
// Each segment holds a line in *window-local* time (slope `a`,
// intercept `b` at `start`), effective on [start, last]. Between a
// segment's `last` and the next segment's `start` the exact curve is
// provably flat (a consequence of the augmented point set), so the
// model holds the segment's final value constant across the gap — this
// preserves the F~(t) in [F(t) - gamma, F(t)] guarantee at every
// discrete timestamp.

#ifndef BURSTHIST_PLA_LINEAR_MODEL_H_
#define BURSTHIST_PLA_LINEAR_MODEL_H_

#include <cstddef>
#include <vector>

#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// One PLA segment: value(t) = a * (t - start) + b for t in
/// [start, last]; held at value(last) for t in (last, next start).
struct PlaSegment {
  double a = 0.0;
  double b = 0.0;
  Timestamp start = 0;
  Timestamp last = 0;
};

/// An ordered sequence of PLA segments with staircase-style lookup.
class LinearModel {
 public:
  LinearModel() = default;

  /// Appends a segment; `start` must exceed the previous segment's
  /// `last`.
  void AppendSegment(const PlaSegment& seg);

  size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }
  const std::vector<PlaSegment>& segments() const { return segments_; }

  /// F~(t): 0 before the first segment; within a segment, the line;
  /// past a segment's `last`, the line's value at `last` (held flat
  /// until the next segment begins). Clamped below at 0.
  double Evaluate(Timestamp t) const;

  /// b~(t) = F~(t) - 2 F~(t-tau) + F~(t-2tau).
  double EstimateBurstiness(Timestamp t, Timestamp tau) const;

  /// Times where the model's slope can change: each segment's start
  /// and (last + 1). The burstiness estimate is piecewise-linear
  /// between breakpoints shifted by {0, tau, 2tau}.
  std::vector<Timestamp> Breakpoints() const;

  size_t SizeBytes() const { return segments_.size() * sizeof(PlaSegment); }

  void Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);

 private:
  std::vector<PlaSegment> segments_;
};

}  // namespace bursthist

#endif  // BURSTHIST_PLA_LINEAR_MODEL_H_
