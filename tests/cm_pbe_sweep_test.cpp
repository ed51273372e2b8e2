// Parameterized CM-PBE grid sweep: invariants across grid shapes,
// estimators, and cell types.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/cm_pbe.h"
#include "core/exact_store.h"
#include "util/random.h"

namespace bursthist {
namespace {

struct GridParam {
  size_t depth;
  size_t width;
  CmEstimator estimator;
  uint64_t seed;
};

EventStream MixedStream(EventId k, size_t n, uint64_t seed) {
  Rng rng(seed);
  EventStream s;
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    EventId e = static_cast<EventId>(rng.NextBelow(k));
    if (rng.NextDouble() < 0.4) e = static_cast<EventId>(rng.NextBelow(4));
    s.Append(e, t);
  }
  return s;
}

class CmPbeGridSweep : public ::testing::TestWithParam<GridParam> {
 protected:
  static constexpr EventId kUniverse = 40;
  static constexpr size_t kRecords = 12000;

  CmPbeOptions Grid() const {
    CmPbeOptions g;
    g.depth = GetParam().depth;
    g.width = GetParam().width;
    g.estimator = GetParam().estimator;
    g.seed = GetParam().seed;
    return g;
  }

  Pbe1Options Cell() const {
    Pbe1Options c;
    c.buffer_points = 128;
    c.budget_points = 64;
    return c;
  }
};

TEST_P(CmPbeGridSweep, CumulativeRespectsMergeUpperBound) {
  // Every row's cell curve dominates the queried event's true curve
  // up to the cell's own Delta; the combined estimate must never fall
  // below truth by more than the total per-buffer Delta, and the MIN
  // estimator must never exceed the merged stream total.
  auto stream = MixedStream(kUniverse, kRecords, GetParam().seed ^ 0xc1);
  ExactBurstStore exact(kUniverse);
  ASSERT_TRUE(exact.AppendStream(stream).ok());
  CmPbe<Pbe1> cm(Grid(), Cell());
  for (const auto& r : stream.records()) cm.Append(r.id, r.time);
  cm.Finalize();

  Rng qrng(GetParam().seed ^ 0xc2);
  for (int i = 0; i < 100; ++i) {
    const EventId e = static_cast<EventId>(qrng.NextBelow(kUniverse));
    const Timestamp t =
        static_cast<Timestamp>(qrng.NextBelow(stream.MaxTime() + 1));
    const double est = cm.EstimateCumulative(e, t);
    const double truth =
        static_cast<double>(exact.CumulativeFrequency(e, t));
    // Lower side: cell PBE undershoot only (merged curves dominate
    // the event's own curve). Generous envelope via cell guarantees.
    EXPECT_GE(est, truth - 2000.0) << "e=" << e << " t=" << t;
    // Upper side: nothing exceeds the whole stream.
    EXPECT_LE(est, static_cast<double>(stream.size()) + 1e-6);
  }
}

TEST_P(CmPbeGridSweep, MinEstimatorDominatedByMedian) {
  // min over rows <= lower-median over rows, always.
  auto stream = MixedStream(kUniverse, kRecords, GetParam().seed ^ 0xc3);
  CmPbeOptions min_grid = Grid();
  min_grid.estimator = CmEstimator::kMin;
  CmPbeOptions med_grid = Grid();
  med_grid.estimator = CmEstimator::kMedian;
  CmPbe<Pbe1> mins(min_grid, Cell());
  CmPbe<Pbe1> med(med_grid, Cell());
  for (const auto& r : stream.records()) {
    mins.Append(r.id, r.time);
    med.Append(r.id, r.time);
  }
  mins.Finalize();
  med.Finalize();
  Rng qrng(GetParam().seed ^ 0xc4);
  for (int i = 0; i < 100; ++i) {
    const EventId e = static_cast<EventId>(qrng.NextBelow(kUniverse));
    const Timestamp t =
        static_cast<Timestamp>(qrng.NextBelow(stream.MaxTime() + 1));
    EXPECT_LE(mins.EstimateCumulative(e, t),
              med.EstimateCumulative(e, t) + 1e-9);
  }
}

TEST_P(CmPbeGridSweep, DeterministicAcrossRebuilds) {
  auto stream = MixedStream(kUniverse, 4000, GetParam().seed ^ 0xc5);
  CmPbe<Pbe1> a(Grid(), Cell()), b(Grid(), Cell());
  for (const auto& r : stream.records()) {
    a.Append(r.id, r.time);
    b.Append(r.id, r.time);
  }
  a.Finalize();
  b.Finalize();
  for (EventId e = 0; e < kUniverse; e += 3) {
    EXPECT_DOUBLE_EQ(a.EstimateCumulative(e, stream.MaxTime()),
                     b.EstimateCumulative(e, stream.MaxTime()));
  }
}

TEST_P(CmPbeGridSweep, SerializationPreservesEverything) {
  auto stream = MixedStream(kUniverse, 6000, GetParam().seed ^ 0xc6);
  CmPbe<Pbe1> cm(Grid(), Cell());
  for (const auto& r : stream.records()) cm.Append(r.id, r.time);
  cm.Finalize();
  BinaryWriter w;
  cm.Serialize(&w);
  CmPbe<Pbe1> back(Grid(), Cell());
  BinaryReader r(w.bytes());
  ASSERT_TRUE(back.Deserialize(&r).ok());
  Rng qrng(GetParam().seed ^ 0xc7);
  for (int i = 0; i < 60; ++i) {
    const EventId e = static_cast<EventId>(qrng.NextBelow(kUniverse));
    const Timestamp t =
        static_cast<Timestamp>(qrng.NextBelow(stream.MaxTime() + 1));
    EXPECT_DOUBLE_EQ(back.EstimateCumulative(e, t),
                     cm.EstimateCumulative(e, t));
  }
}

std::vector<GridParam> GridParams() {
  return {
      {1, 1, CmEstimator::kMedian, 11},
      {1, 16, CmEstimator::kMin, 12},
      {2, 55, CmEstimator::kMedian, 13},   // the paper's sizing
      {2, 55, CmEstimator::kMin, 14},
      {3, 8, CmEstimator::kMedian, 15},
      {4, 64, CmEstimator::kMedian, 16},
      {5, 32, CmEstimator::kMin, 17},
      {7, 128, CmEstimator::kMedian, 18},
  };
}

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  std::string name = "d";
  name += std::to_string(info.param.depth);
  name += "w";
  name += std::to_string(info.param.width);
  name += info.param.estimator == CmEstimator::kMin ? "min" : "med";
  return name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CmPbeGridSweep,
                         ::testing::ValuesIn(GridParams()), GridName);

}  // namespace
}  // namespace bursthist
