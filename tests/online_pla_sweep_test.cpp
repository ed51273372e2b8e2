// Parameterized online-PLA sweep: the band invariant and segment
// bookkeeping across (gamma, polygon cap, stream shape) combinations.

#include <gtest/gtest.h>

#include <string>

#include "pla/online_pla.h"
#include "util/random.h"

namespace bursthist {
namespace {

struct PlaParam {
  double gamma;
  size_t max_vertices;
  int shape;  // 0 steady, 1 bursty, 2 steppy, 3 dense
  uint64_t seed;
};

FrequencyCurve MakeCurve(const PlaParam& p) {
  Rng rng(p.seed);
  std::vector<CurvePoint> pts;
  Timestamp t = 0;
  Count c = 0;
  for (int i = 0; i < 250; ++i) {
    switch (p.shape) {
      case 0:
        t += 3;
        c += 2;
        break;
      case 1: {
        const bool storm = (i / 40) % 2 == 1;
        t += storm ? 1 : 5 + static_cast<Timestamp>(rng.NextBelow(20));
        c += storm ? 5 + static_cast<Count>(rng.NextBelow(10)) : 1;
        break;
      }
      case 2:
        t += 1 + static_cast<Timestamp>(rng.NextBelow(4));
        c += (i % 50 == 0) ? 200 : 1;  // rare huge jumps
        break;
      default:
        t += 1;
        c += 1 + static_cast<Count>(rng.NextBelow(3));
        break;
    }
    pts.push_back(CurvePoint{t, c});
  }
  return FrequencyCurve(std::move(pts));
}

class OnlinePlaSweep : public ::testing::TestWithParam<PlaParam> {};

TEST_P(OnlinePlaSweep, BandInvariantHolds) {
  const auto p = GetParam();
  FrequencyCurve curve = MakeCurve(p);
  LinearModel model = BuildPla(curve, p.gamma, p.max_vertices);
  const Timestamp last = curve.points().back().time;
  for (Timestamp t = curve.points().front().time; t <= last + 2; ++t) {
    const double f = static_cast<double>(curve.Evaluate(t));
    const double est = model.Evaluate(t);
    EXPECT_LE(est, f + 1e-6) << "t=" << t;
    EXPECT_GE(est, f - p.gamma - 1e-6) << "t=" << t;
  }
}

TEST_P(OnlinePlaSweep, SegmentsWellFormed) {
  const auto p = GetParam();
  FrequencyCurve curve = MakeCurve(p);
  LinearModel model = BuildPla(curve, p.gamma, p.max_vertices);
  ASSERT_FALSE(model.empty());
  const auto& segs = model.segments();
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_LE(segs[i].start, segs[i].last);
    if (i > 0) {
      EXPECT_GT(segs[i].start, segs[i - 1].last);
    }
  }
  // Coverage: first segment starts at (or before) the first augmented
  // point; last segment reaches the final corner.
  EXPECT_LE(segs.front().start, curve.points().front().time);
  EXPECT_EQ(segs.back().last, curve.points().back().time);
}

TEST_P(OnlinePlaSweep, SerializationStable)  {
  const auto p = GetParam();
  FrequencyCurve curve = MakeCurve(p);
  LinearModel model = BuildPla(curve, p.gamma, p.max_vertices);
  BinaryWriter w;
  model.Serialize(&w);
  LinearModel back;
  BinaryReader r(w.bytes());
  ASSERT_TRUE(back.Deserialize(&r).ok());
  ASSERT_EQ(back.size(), model.size());
  const Timestamp last = curve.points().back().time;
  for (Timestamp t = 0; t <= last; t += 7) {
    EXPECT_DOUBLE_EQ(back.Evaluate(t), model.Evaluate(t));
  }
}

std::vector<PlaParam> Params() {
  std::vector<PlaParam> out;
  uint64_t seed = 41;
  for (double gamma : {0.0, 1.0, 8.0, 64.0}) {
    for (size_t cap : {size_t{0}, size_t{6}}) {
      for (int shape : {0, 1, 2, 3}) {
        out.push_back({gamma, cap, shape, seed++});
      }
    }
  }
  return out;
}

std::string Name(const ::testing::TestParamInfo<PlaParam>& info) {
  const char* shapes[] = {"steady", "bursty", "steppy", "dense"};
  std::string name = "g";
  name += std::to_string(static_cast<int>(info.param.gamma));
  name += "_cap";
  name += std::to_string(info.param.max_vertices);
  name += "_";
  name += shapes[info.param.shape];
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, OnlinePlaSweep, ::testing::ValuesIn(Params()),
                         Name);

}  // namespace
}  // namespace bursthist
