// Compressed staircase approximation of a cumulative frequency curve
// (the representation PBE-1 stores, Section III-A).

#ifndef BURSTHIST_PLA_STAIRCASE_MODEL_H_
#define BURSTHIST_PLA_STAIRCASE_MODEL_H_

#include <cstddef>
#include <vector>

#include "stream/frequency_curve.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// A monotone staircase over corner points: value of the last corner at
/// or before t, zero before the first corner. Corner points are a
/// subset of the exact curve's corners, so the model never
/// overestimates F(t).
class StaircaseModel {
 public:
  StaircaseModel() = default;
  explicit StaircaseModel(std::vector<CurvePoint> points)
      : points_(std::move(points)) {}

  /// Appends corner points (e.g. one compressed buffer); times and
  /// counts must continue to increase strictly.
  void AppendPoints(const std::vector<CurvePoint>& pts);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<CurvePoint>& points() const { return points_; }

  /// F~(t).
  Count Evaluate(Timestamp t) const;

  /// b~(t) = F~(t) - 2 F~(t-tau) + F~(t-2tau).
  double EstimateBurstiness(Timestamp t, Timestamp tau) const;

  /// Times where the model's value changes (corner times). The
  /// burstiness estimate is piecewise-constant between breakpoints
  /// shifted by {0, tau, 2tau}.
  std::vector<Timestamp> Breakpoints() const;

  /// Bytes used by the corner-point storage.
  size_t SizeBytes() const { return points_.size() * sizeof(CurvePoint); }

  void Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);

 private:
  std::vector<CurvePoint> points_;
};

}  // namespace bursthist

#endif  // BURSTHIST_PLA_STAIRCASE_MODEL_H_
