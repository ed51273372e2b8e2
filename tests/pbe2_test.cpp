// Unit + property tests for PBE-2 (Section III-B).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/pbe2.h"
#include "stream/event_stream.h"
#include "util/random.h"

namespace bursthist {
namespace {

SingleEventStream RandomStream(size_t n, Rng* rng, Timestamp max_gap = 5) {
  std::vector<Timestamp> times;
  times.reserve(n);
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng->NextBelow(max_gap + 1));
    times.push_back(t);
  }
  return SingleEventStream(std::move(times));
}

Pbe2 BuildPbe2(const SingleEventStream& s, double gamma) {
  Pbe2Options opt;
  opt.gamma = gamma;
  Pbe2 pbe(opt);
  for (Timestamp t : s.times()) pbe.Append(t);
  pbe.Finalize();
  return pbe;
}

TEST(Pbe2Test, BandInvariantEndToEnd) {
  Rng rng(21);
  for (double gamma : {0.0, 2.0, 8.0}) {
    auto s = RandomStream(1500, &rng);
    Pbe2 pbe = BuildPbe2(s, gamma);
    for (Timestamp t = 0; t <= s.times().back() + 3; ++t) {
      const double exact = static_cast<double>(s.CumulativeFrequency(t));
      const double est = pbe.EstimateCumulative(t);
      EXPECT_LE(est, exact + 1e-6) << "gamma=" << gamma << " t=" << t;
      EXPECT_GE(est, exact - gamma - 1e-6) << "gamma=" << gamma << " t=" << t;
    }
  }
}

TEST(Pbe2Test, BurstinessWithin4Gamma) {
  Rng rng(23);
  const double gamma = 5.0;
  auto s = RandomStream(2000, &rng);
  Pbe2 pbe = BuildPbe2(s, gamma);
  for (Timestamp tau : {4, 25, 150}) {
    for (Timestamp t = 0; t <= s.times().back() + 2 * tau; t += 9) {
      const double exact = static_cast<double>(s.BurstinessAt(t, tau));
      EXPECT_LE(std::abs(pbe.EstimateBurstiness(t, tau) - exact),
                4.0 * gamma + 1e-6)
          << "t=" << t << " tau=" << tau;
    }
  }
}

TEST(Pbe2Test, DuplicateTimestampsMerge) {
  Pbe2Options opt;
  opt.gamma = 0.0;
  Pbe2 pbe(opt);
  pbe.Append(4);
  pbe.Append(4, 2);
  pbe.Append(10);
  pbe.Append(10);
  pbe.Finalize();
  EXPECT_EQ(pbe.TotalCount(), 5u);
  EXPECT_NEAR(pbe.EstimateCumulative(4), 3.0, 1e-9);
  EXPECT_NEAR(pbe.EstimateCumulative(10), 5.0, 1e-9);
  EXPECT_NEAR(pbe.EstimateCumulative(9), 3.0, 1e-9);  // flat stretch
}

TEST(Pbe2Test, LargerGammaFewerSegmentsLessSpace) {
  Rng rng(25);
  auto s = RandomStream(5000, &rng);
  size_t prev_segments = ~size_t{0};
  for (double gamma : {1.0, 4.0, 16.0, 64.0}) {
    Pbe2 pbe = BuildPbe2(s, gamma);
    EXPECT_LE(pbe.SegmentCount(), prev_segments) << "gamma=" << gamma;
    prev_segments = pbe.SegmentCount();
  }
}

TEST(Pbe2Test, SpaceBelowExactStream) {
  Rng rng(27);
  auto s = RandomStream(20000, &rng, /*max_gap=*/3);
  Pbe2 pbe = BuildPbe2(s, 16.0);
  EXPECT_LT(pbe.SizeBytes(), s.SizeBytes() / 4);
}

TEST(Pbe2Test, SnapshotQueriesMidStream) {
  Rng rng(29);
  auto s = RandomStream(1000, &rng);
  Pbe2Options opt;
  opt.gamma = 3.0;
  Pbe2 pbe(opt);
  size_t i = 0;
  for (; i < 600; ++i) pbe.Append(s.times()[i]);
  Pbe2 snap = pbe;
  snap.Finalize();
  EXPECT_TRUE(snap.finalized());
  EXPECT_FALSE(pbe.finalized());
  const Timestamp mid = s.times()[599];
  const double est = snap.EstimateCumulative(mid);
  EXPECT_LE(est, 600.0 + 1e-6);
  EXPECT_GE(est, 600.0 - opt.gamma - 1e-6);
  for (; i < s.size(); ++i) pbe.Append(s.times()[i]);
  pbe.Finalize();
  EXPECT_EQ(pbe.TotalCount(), s.size());
}

TEST(Pbe2Test, BreakpointsSortedStrict) {
  Rng rng(31);
  auto s = RandomStream(800, &rng);
  Pbe2 pbe = BuildPbe2(s, 2.0);
  auto bps = pbe.Breakpoints();
  ASSERT_FALSE(bps.empty());
  for (size_t i = 1; i < bps.size(); ++i) EXPECT_GT(bps[i], bps[i - 1]);
}

TEST(Pbe2Test, SerializationRoundTrip) {
  Rng rng(33);
  auto s = RandomStream(1500, &rng);
  Pbe2 pbe = BuildPbe2(s, 4.0);
  BinaryWriter w;
  pbe.Serialize(&w);
  Pbe2 back;
  BinaryReader r(w.bytes());
  ASSERT_TRUE(back.Deserialize(&r).ok());
  EXPECT_EQ(back.TotalCount(), pbe.TotalCount());
  EXPECT_EQ(back.SegmentCount(), pbe.SegmentCount());
  for (Timestamp t = 0; t <= s.times().back(); t += 13) {
    EXPECT_DOUBLE_EQ(back.EstimateCumulative(t), pbe.EstimateCumulative(t));
  }
}

TEST(Pbe2Test, CorruptPayloadRejected) {
  BinaryWriter w;
  w.Put<uint32_t>(0x12345678);
  Pbe2 pbe;
  BinaryReader r(w.bytes());
  EXPECT_FALSE(pbe.Deserialize(&r).ok());
}

TEST(Pbe2Test, EmptyStreamFinalizes) {
  Pbe2 pbe;
  pbe.Finalize();
  EXPECT_EQ(pbe.EstimateCumulative(10), 0.0);
  EXPECT_EQ(pbe.EstimateBurstiness(10, 2), 0.0);
  EXPECT_TRUE(pbe.Breakpoints().empty());
}

TEST(Pbe2Test, BurstyStepFunctionTracked) {
  // A flat -> burst -> flat pattern: the estimate must see the jump.
  Pbe2Options opt;
  opt.gamma = 2.0;
  Pbe2 pbe(opt);
  Count n = 0;
  for (Timestamp t = 0; t < 100; t += 10) pbe.Append(t), ++n;
  for (Timestamp t = 100; t < 120; ++t) {
    pbe.Append(t, 50);
    n += 50;
  }
  for (Timestamp t = 120; t < 220; t += 10) pbe.Append(t), ++n;
  pbe.Finalize();
  const double before = pbe.EstimateBurstiness(95, 20);
  const double during = pbe.EstimateBurstiness(119, 20);
  EXPECT_GT(during, before + 500.0);
}

}  // namespace
}  // namespace bursthist
