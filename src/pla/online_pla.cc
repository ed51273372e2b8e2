#include "pla/online_pla.h"

#include <cassert>

namespace bursthist {

OnlinePlaBuilder::OnlinePlaBuilder(double gamma, size_t max_polygon_vertices,
                                   size_t target_bytes)
    : gamma_(gamma),
      max_gamma_(gamma),
      max_vertices_(max_polygon_vertices),
      target_bytes_(target_bytes) {
  assert(gamma_ >= 0.0);
}

HalfPlane OnlinePlaBuilder::UpperConstraint(Timestamp t, Count count) const {
  // a * (t - start) + b <= F  in (a, b) space.
  const double dt = static_cast<double>(t - window_start_);
  return HalfPlane{dt, 1.0, static_cast<double>(count)};
}

HalfPlane OnlinePlaBuilder::LowerConstraint(Timestamp t, Count count) const {
  // a * (t - start) + b >= F - gamma.
  const double dt = static_cast<double>(t - window_start_);
  return HalfPlane{-dt, -1.0, -(static_cast<double>(count) - gamma_)};
}

void OnlinePlaBuilder::AddPoint(Timestamp t, Count count) {
  assert(!window_open_ || t > last_.t);

  if (!window_open_) {
    window_open_ = true;
    window_start_ = t;
    first_ = last_ = PendingPoint{t, count};
    window_points_ = 1;
    return;
  }

  if (window_points_ == 1) {
    // Seed the feasible polygon from the two strips (the paper's
    // "Compute G_2" step): the first point pins b to
    // [F_0 - gamma, F_0] (its local time is 0), the second bounds the
    // slope; their intersection is a parallelogram, exact by
    // construction.
    const double dt = static_cast<double>(t - window_start_);
    const double f0 = static_cast<double>(first_.count);
    const double f1 = static_cast<double>(count);
    const double b_lo = f0 - gamma_;
    const double b_hi = f0;
    auto a_lo = [&](double b) { return (f1 - gamma_ - b) / dt; };
    auto a_hi = [&](double b) { return (f1 - b) / dt; };
    polygon_ = ConvexPolygon({{a_lo(b_lo), b_lo},
                              {a_hi(b_lo), b_lo},
                              {a_hi(b_hi), b_hi},
                              {a_lo(b_hi), b_hi}});
    last_ = PendingPoint{t, count};
    window_points_ = 2;
    return;
  }

  // Try to absorb the point: clip a copy against both constraints.
  ConvexPolygon candidate = polygon_;
  candidate.Clip(UpperConstraint(t, count));
  candidate.Clip(LowerConstraint(t, count));
  if (!candidate.empty()) {
    polygon_ = std::move(candidate);
    last_ = PendingPoint{t, count};
    ++window_points_;
    if (max_vertices_ > 0 && polygon_.size() > max_vertices_) {
      // Space-constrained variant: close the window (the current point
      // is already covered by the emitted segment).
      EmitWindow();
    }
    return;
  }

  // Infeasible: emit the window through the previous polygon, restart
  // a fresh window at the current point.
  EmitWindow();
  window_open_ = true;
  window_start_ = t;
  first_ = last_ = PendingPoint{t, count};
  window_points_ = 1;
}

void OnlinePlaBuilder::EmitWindow() {
  assert(window_open_);
  PlaSegment seg;
  seg.start = window_start_;
  seg.last = last_.t;
  if (window_points_ == 1) {
    // Lone point: a flat segment through the middle of its band (the
    // top of the band when gamma is 0).
    seg.a = 0.0;
    seg.b = static_cast<double>(first_.count) - gamma_ / 2.0;
  } else {
    const Point2 ab = polygon_.Centroid();
    seg.a = ab.x;
    seg.b = ab.y;
  }
  model_.AppendSegment(seg);
  window_open_ = false;
  window_points_ = 0;
  polygon_ = ConvexPolygon();

  // Soft space budget: coarsen the band for future windows once the
  // model outgrows the target. Doubling keeps the overshoot bounded
  // while degrading the guarantee geometrically, not linearly.
  if (target_bytes_ > 0 && model_.SizeBytes() > target_bytes_) {
    gamma_ = gamma_ == 0.0 ? 1.0 : gamma_ * 2.0;
    max_gamma_ = gamma_;
  }
}

void OnlinePlaBuilder::Finish() {
  if (window_open_) EmitWindow();
}

namespace {
LinearModel BuildFromPoints(const std::vector<CurvePoint>& pts, double gamma,
                            size_t max_polygon_vertices) {
  OnlinePlaBuilder builder(gamma, max_polygon_vertices);
  for (const auto& p : pts) builder.AddPoint(p.time, p.count);
  builder.Finish();
  return builder.TakeModel();
}
}  // namespace

LinearModel BuildPla(const FrequencyCurve& curve, double gamma,
                     size_t max_polygon_vertices) {
  return BuildFromPoints(curve.AugmentedPoints(), gamma,
                         max_polygon_vertices);
}

LinearModel BuildPlaNoAugmentation(const FrequencyCurve& curve, double gamma,
                                   size_t max_polygon_vertices) {
  return BuildFromPoints(curve.points(), gamma, max_polygon_vertices);
}

}  // namespace bursthist
