#include "pla/linear_model.h"

#include <algorithm>
#include <cassert>

#include "util/varint.h"

namespace bursthist {

void LinearModel::AppendSegment(const PlaSegment& seg) {
  assert(seg.last >= seg.start);
  assert(segments_.empty() || seg.start > segments_.back().last);
  segments_.push_back(seg);
}

double LinearModel::Evaluate(Timestamp t) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Timestamp v, const PlaSegment& s) { return v < s.start; });
  if (it == segments_.begin()) return 0.0;
  const PlaSegment& s = *std::prev(it);
  const Timestamp eff = std::min(t, s.last);
  const double v = s.a * static_cast<double>(eff - s.start) + s.b;
  return v < 0.0 ? 0.0 : v;
}

double LinearModel::EstimateBurstiness(Timestamp t, Timestamp tau) const {
  return Evaluate(t) - 2.0 * Evaluate(t - tau) + Evaluate(t - 2 * tau);
}

std::vector<Timestamp> LinearModel::Breakpoints() const {
  std::vector<Timestamp> out;
  out.reserve(segments_.size() * 2);
  for (const auto& s : segments_) {
    // Adjacent windows make (prev.last + 1) == next.start; keep the
    // list strictly increasing.
    if (out.empty() || s.start > out.back()) out.push_back(s.start);
    out.push_back(s.last + 1);
  }
  return out;
}

void LinearModel::Serialize(BinaryWriter* w) const {
  // Segment times are delta + varint coded (starts strictly increase
  // past the previous segment's last); line coefficients stay as raw
  // doubles.
  PutVarint(w, segments_.size());
  Timestamp prev_last = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    const PlaSegment& s = segments_[i];
    if (i == 0) {
      PutSignedVarint(w, s.start);
    } else {
      PutVarint(w, static_cast<uint64_t>(s.start - prev_last));
    }
    PutVarint(w, static_cast<uint64_t>(s.last - s.start));
    w->Put<double>(s.a);
    w->Put<double>(s.b);
    prev_last = s.last;
  }
}

Status LinearModel::Deserialize(BinaryReader* r) {
  uint64_t n = 0;
  BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &n));
  if (n > r->remaining()) {
    return Status::Corruption("segment count exceeds payload");
  }
  segments_.clear();
  segments_.reserve(static_cast<size_t>(n));
  Timestamp prev_last = 0;
  for (uint64_t i = 0; i < n; ++i) {
    PlaSegment s;
    if (i == 0) {
      int64_t first = 0;
      BURSTHIST_RETURN_IF_ERROR(GetSignedVarint(r, &first));
      s.start = first;
    } else {
      uint64_t gap = 0;
      BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &gap));
      if (gap == 0) return Status::Corruption("overlapping segments");
      s.start = prev_last + static_cast<Timestamp>(gap);
    }
    uint64_t span = 0;
    BURSTHIST_RETURN_IF_ERROR(GetVarint(r, &span));
    s.last = s.start + static_cast<Timestamp>(span);
    BURSTHIST_RETURN_IF_ERROR(r->Get(&s.a));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&s.b));
    segments_.push_back(s);
    prev_last = s.last;
  }
  return Status::OK();
}

}  // namespace bursthist
