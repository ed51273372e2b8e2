#include "pla/staircase_model.h"

#include <algorithm>
#include <cassert>

#include "util/varint.h"

namespace bursthist {

void StaircaseModel::AppendPoints(const std::vector<CurvePoint>& pts) {
#ifndef NDEBUG
  if (!points_.empty() && !pts.empty()) {
    assert(pts.front().time > points_.back().time);
    assert(pts.front().count > points_.back().count);
  }
#endif
  points_.insert(points_.end(), pts.begin(), pts.end());
}

Count StaircaseModel::Evaluate(Timestamp t) const {
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Timestamp v, const CurvePoint& p) { return v < p.time; });
  if (it == points_.begin()) return 0;
  return std::prev(it)->count;
}

double StaircaseModel::EstimateBurstiness(Timestamp t, Timestamp tau) const {
  const auto f0 = static_cast<double>(Evaluate(t));
  const auto f1 = static_cast<double>(Evaluate(t - tau));
  const auto f2 = static_cast<double>(Evaluate(t - 2 * tau));
  return f0 - 2.0 * f1 + f2;
}

std::vector<Timestamp> StaircaseModel::Breakpoints() const {
  std::vector<Timestamp> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.time);
  return out;
}

void StaircaseModel::Serialize(BinaryWriter* w) const {
  // Delta + varint coding: corner times and counts are strictly
  // increasing, so consecutive differences are small positive values.
  PutVarint(w, points_.size());
  Timestamp prev_t = 0;
  Count prev_c = 0;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i == 0) {
      PutSignedVarint(w, points_[0].time);
    } else {
      PutVarint(w, static_cast<uint64_t>(points_[i].time - prev_t));
    }
    PutVarint(w, points_[i].count - prev_c);
    prev_t = points_[i].time;
    prev_c = points_[i].count;
  }
}

Status StaircaseModel::Deserialize(BinaryReader* r) {
  uint64_t n = 0;
  BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &n));
  if (n > r->remaining()) {
    // Each point takes at least 2 bytes; cheap plausibility bound.
    return Status::Corruption("staircase point count exceeds payload");
  }
  points_.clear();
  points_.reserve(static_cast<size_t>(n));
  Timestamp t = 0;
  Count c = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (i == 0) {
      int64_t first = 0;
      BURSTHIST_RETURN_IF_ERROR(GetSignedVarint(r, &first));
      t = first;
    } else {
      uint64_t dt = 0;
      BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &dt));
      if (dt == 0) return Status::Corruption("non-increasing corner time");
      t += static_cast<Timestamp>(dt);
    }
    uint64_t dc = 0;
    BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &dc));
    if (dc == 0) return Status::Corruption("non-increasing corner count");
    c += dc;
    points_.push_back(CurvePoint{t, c});
  }
  return Status::OK();
}

}  // namespace bursthist
