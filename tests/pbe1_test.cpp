// Unit + property tests for PBE-1 (Section III-A).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/pbe1.h"
#include "stream/event_stream.h"
#include "stream/frequency_curve.h"
#include "util/random.h"

namespace bursthist {
namespace {

SingleEventStream RandomStream(size_t n, Rng* rng, Timestamp max_gap = 5) {
  std::vector<Timestamp> times;
  times.reserve(n);
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng->NextBelow(max_gap + 1));  // dups allowed
    times.push_back(t);
  }
  return SingleEventStream(std::move(times));
}

Pbe1 BuildPbe1(const SingleEventStream& s, const Pbe1Options& opt) {
  Pbe1 pbe(opt);
  for (Timestamp t : s.times()) pbe.Append(t);
  pbe.Finalize();
  return pbe;
}

TEST(Pbe1Test, ExactWhenBudgetCoversBuffer) {
  Rng rng(1);
  auto s = RandomStream(300, &rng);
  Pbe1Options opt;
  opt.buffer_points = 50;
  opt.budget_points = 50;  // no compression loss
  Pbe1 pbe = BuildPbe1(s, opt);
  EXPECT_DOUBLE_EQ(pbe.TotalAreaError(), 0.0);
  for (Timestamp t = 0; t <= s.times().back() + 3; ++t) {
    EXPECT_EQ(pbe.EstimateCumulative(t),
              static_cast<double>(s.CumulativeFrequency(t)));
  }
}

TEST(Pbe1Test, DuplicateTimestampsMergeIntoOneCorner) {
  Pbe1Options opt;
  opt.buffer_points = 10;
  opt.budget_points = 10;
  Pbe1 pbe(opt);
  pbe.Append(5);
  pbe.Append(5);
  pbe.Append(5, 3);
  pbe.Append(9);
  pbe.Finalize();
  EXPECT_EQ(pbe.PointCount(), 2u);
  EXPECT_EQ(pbe.TotalCount(), 6u);
  EXPECT_DOUBLE_EQ(pbe.EstimateCumulative(5), 5.0);
  EXPECT_DOUBLE_EQ(pbe.EstimateCumulative(9), 6.0);
}

TEST(Pbe1Test, NeverOverestimatesCumulative) {
  Rng rng(3);
  auto s = RandomStream(2000, &rng);
  Pbe1Options opt;
  opt.buffer_points = 100;
  opt.budget_points = 10;
  Pbe1 pbe = BuildPbe1(s, opt);
  for (Timestamp t = 0; t <= s.times().back() + 5; t += 3) {
    EXPECT_LE(pbe.EstimateCumulative(t),
              static_cast<double>(s.CumulativeFrequency(t)))
        << "t=" << t;
  }
}

TEST(Pbe1Test, BurstinessErrorWithinLemmaBound) {
  // Lemma 1: |b~ - b| <= 4 * Delta where Delta is the area error.
  // Our per-buffer Delta values accumulate, so the bound uses the sum.
  Rng rng(5);
  auto s = RandomStream(3000, &rng);
  Pbe1Options opt;
  opt.buffer_points = 150;
  opt.budget_points = 25;
  Pbe1 pbe = BuildPbe1(s, opt);
  const double bound = 4.0 * pbe.TotalAreaError() + 1e-6;
  for (Timestamp tau : {5, 20, 100}) {
    for (Timestamp t = 0; t <= s.times().back() + 2 * tau; t += 11) {
      const double exact = static_cast<double>(s.BurstinessAt(t, tau));
      EXPECT_LE(std::abs(pbe.EstimateBurstiness(t, tau) - exact), bound);
    }
  }
}

TEST(Pbe1Test, MoreBudgetSmallerError) {
  Rng rng(7);
  auto s = RandomStream(4000, &rng);
  double prev_err = -1.0;
  std::vector<double> errors;
  for (size_t budget : {5, 10, 25, 50, 100}) {
    Pbe1Options opt;
    opt.buffer_points = 200;
    opt.budget_points = budget;
    Pbe1 pbe = BuildPbe1(s, opt);
    errors.push_back(pbe.TotalAreaError());
  }
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-9);
  }
  (void)prev_err;
}

TEST(Pbe1Test, ErrorCapModeHonorsPerBufferCap) {
  Rng rng(9);
  auto s = RandomStream(2500, &rng);
  Pbe1Options opt;
  opt.buffer_points = 100;
  opt.error_cap = 50.0;
  Pbe1 pbe(opt);
  size_t buffers = 0;
  Count appended = 0;
  for (Timestamp t : s.times()) {
    pbe.Append(t);
    ++appended;
  }
  pbe.Finalize();
  buffers = (pbe.PointCount() ? 1 : 0);  // at least one
  // Each buffer's DP error is <= cap; the total is <= cap * #buffers.
  // #buffers <= ceil(distinct timestamps / buffer size) + 1.
  FrequencyCurve curve(s);
  const double max_buffers =
      std::ceil(static_cast<double>(curve.size()) / 100.0);
  EXPECT_LE(pbe.TotalAreaError(), 50.0 * max_buffers + 1e-9);
  (void)buffers;
  (void)appended;
}

TEST(Pbe1Test, SpaceShrinksWithCompression) {
  Rng rng(11);
  auto s = RandomStream(5000, &rng);
  Pbe1Options tight;
  tight.buffer_points = 250;
  tight.budget_points = 10;
  Pbe1Options loose;
  loose.buffer_points = 250;
  loose.budget_points = 200;
  Pbe1 a = BuildPbe1(s, tight);
  Pbe1 b = BuildPbe1(s, loose);
  EXPECT_LT(a.SizeBytes(), b.SizeBytes());
  EXPECT_LT(a.SizeBytes(), s.SizeBytes());
}

TEST(Pbe1Test, SnapshotQueriesMidStream) {
  Rng rng(13);
  auto s = RandomStream(1000, &rng);
  Pbe1Options opt;
  opt.buffer_points = 64;
  opt.budget_points = 16;
  Pbe1 pbe(opt);
  size_t i = 0;
  for (; i < 500; ++i) pbe.Append(s.times()[i]);
  Pbe1 snap = pbe;
  snap.Finalize();
  EXPECT_TRUE(snap.finalized());
  EXPECT_FALSE(pbe.finalized());
  const Timestamp mid = s.times()[499];
  EXPECT_LE(snap.EstimateCumulative(mid), 500.0);
  // Parent continues ingesting unaffected.
  for (; i < s.size(); ++i) pbe.Append(s.times()[i]);
  pbe.Finalize();
  EXPECT_EQ(pbe.TotalCount(), s.size());
}

TEST(Pbe1Test, BreakpointsAreModelCorners) {
  Rng rng(15);
  auto s = RandomStream(500, &rng);
  Pbe1Options opt;
  opt.buffer_points = 50;
  opt.budget_points = 8;
  Pbe1 pbe = BuildPbe1(s, opt);
  auto bps = pbe.Breakpoints();
  EXPECT_EQ(bps.size(), pbe.PointCount());
  for (size_t i = 1; i < bps.size(); ++i) EXPECT_GT(bps[i], bps[i - 1]);
  // The estimate only changes at breakpoints.
  for (size_t i = 1; i < bps.size(); ++i) {
    if (bps[i] - bps[i - 1] >= 2) {
      EXPECT_EQ(pbe.EstimateCumulative(bps[i] - 1),
                pbe.EstimateCumulative(bps[i - 1]));
    }
  }
}

TEST(Pbe1Test, SerializationRoundTrip) {
  Rng rng(17);
  auto s = RandomStream(1200, &rng);
  Pbe1Options opt;
  opt.buffer_points = 80;
  opt.budget_points = 20;
  Pbe1 pbe = BuildPbe1(s, opt);

  BinaryWriter w;
  pbe.Serialize(&w);
  Pbe1 back;
  BinaryReader r(w.bytes());
  ASSERT_TRUE(back.Deserialize(&r).ok());
  EXPECT_EQ(back.TotalCount(), pbe.TotalCount());
  EXPECT_EQ(back.PointCount(), pbe.PointCount());
  for (Timestamp t = 0; t <= s.times().back(); t += 7) {
    EXPECT_DOUBLE_EQ(back.EstimateCumulative(t), pbe.EstimateCumulative(t));
  }
}

TEST(Pbe1Test, CorruptPayloadRejected) {
  BinaryWriter w;
  w.Put<uint32_t>(0xbadf00d);
  Pbe1 pbe;
  BinaryReader r(w.bytes());
  EXPECT_FALSE(pbe.Deserialize(&r).ok());
}

// A finalized estimator answers from its model alone: Finalize frees
// the open buffer and fits the model to its points, whether the
// estimator ingested directly or is a copy taken mid-buffer (what a
// read view's capture seals).
TEST(Pbe1Test, FinalizedHoldsOnlyItsModel) {
  Rng rng(19);
  auto s = RandomStream(5000, &rng);  // two full n = 1500 buffers + a residual
  Pbe1 live;
  for (Timestamp t : s.times()) live.Append(t);
  Pbe1 copy = live;
  for (Pbe1* pbe : {&live, &copy}) {
    pbe->Finalize();
    EXPECT_GT(pbe->PointCount(), 2 * Pbe1Options().budget_points);
    EXPECT_EQ(pbe->MemoryUsage(),
              sizeof(Pbe1) + pbe->PointCount() * sizeof(CurvePoint));
  }
}

// The buffer grows geometrically but never reserves past n: a full
// n = 1500 buffer costs 1500 points of capacity, not the 2048 a
// doubling vector reaches, and the flush reuses that storage.
TEST(Pbe1Test, FullBufferCostsAtMostNPoints) {
  Pbe1Options opt;
  opt.buffer_points = 1500;
  Pbe1 pbe(opt);
  for (Timestamp t = 0; t < 1500; ++t) pbe.Append(t);
  EXPECT_EQ(pbe.PointCount(), 1500u);
  EXPECT_LE(pbe.MemoryUsage(), sizeof(Pbe1) + 1500 * sizeof(CurvePoint));
  pbe.Append(1500);  // flushes 1500 points to eta = 120 corners
  EXPECT_EQ(pbe.PointCount(), opt.budget_points + 1);
  EXPECT_LE(pbe.MemoryUsage(),
            sizeof(Pbe1) + (opt.budget_points + 1500) * sizeof(CurvePoint));
}

TEST(Pbe1Test, EmptyStreamFinalizes) {
  Pbe1 pbe;
  pbe.Finalize();
  EXPECT_EQ(pbe.EstimateCumulative(100), 0.0);
  EXPECT_EQ(pbe.EstimateBurstiness(100, 10), 0.0);
  EXPECT_TRUE(pbe.Breakpoints().empty());
}

}  // namespace
}  // namespace bursthist
