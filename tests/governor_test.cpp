// Resource governor unit tests: status codes, the degradation ladder,
// the write path's batch admission (AdmitBatch), per-structure memory
// accounting and degradation hooks, and engine backpressure policies
// (with BENG v4 round-trips).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "core/pbe1.h"
#include "core/pbe2.h"
#include "governor/resource_governor.h"
#include "test_util.h"
#include "util/status.h"

namespace bursthist {
namespace {

using test::kAccumTol;

TEST(StatusCodesTest, ResourceExhaustedAndUnavailable) {
  const Status exhausted = Status::ResourceExhausted("buffer full");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "ResourceExhausted: buffer full");
  const Status unavailable = Status::Unavailable("read-only");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: read-only");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

// ---------------------------------------------------------------------------
// ResourceGovernor ladder
// ---------------------------------------------------------------------------

TEST(ResourceGovernorTest, LadderWalk) {
  size_t usage = 100;
  int sheds = 0;
  ResourceGovernor gov(ResourceBudget{/*soft=*/150, /*hard=*/300});
  gov.RegisterComponent(
      "fake", [&] { return usage; }, [&](double) { ++sheds; });

  EXPECT_EQ(gov.Enforce(), DegradationLevel::kNormal);
  EXPECT_EQ(sheds, 0);
  EXPECT_EQ(gov.last_audit_bytes(), 100u);
  EXPECT_TRUE(gov.Admit().ok());

  // Soft crossed: exactly one shed round, still admitting.
  usage = 200;
  EXPECT_EQ(gov.Enforce(), DegradationLevel::kShedding);
  EXPECT_EQ(sheds, 1);
  EXPECT_TRUE(gov.Admit().ok());

  // Hard crossed but shedding recovers: rounds run until under hard.
  usage = 400;
  gov = ResourceGovernor(ResourceBudget{150, 300});
  gov.RegisterComponent(
      "fake", [&] { return usage; },
      [&](double) {
        ++sheds;
        usage = usage > 100 ? usage - 100 : usage;
      });
  sheds = 0;
  EXPECT_EQ(gov.Enforce(), DegradationLevel::kShedding);
  EXPECT_EQ(sheds, 1);
  EXPECT_EQ(gov.last_audit_bytes(), 300u);
  EXPECT_TRUE(gov.Admit().ok());
}

TEST(ResourceGovernorTest, SaturationRefusesAdmissionAndRecovers) {
  size_t usage = 1000;
  ResourceGovernor gov(ResourceBudget{150, 300});
  gov.RegisterComponent(
      "stuck", [&] { return usage; }, [&](double) { usage -= 50; });

  // 4 bounded rounds shed 200; 800 still exceeds hard -> saturated.
  EXPECT_EQ(gov.Enforce(), DegradationLevel::kSaturated);
  EXPECT_EQ(gov.shed_rounds(), 4u);
  const Status admit = gov.Admit();
  EXPECT_EQ(admit.code(), StatusCode::kResourceExhausted);

  // Load drops: the next audit re-admits.
  usage = 120;
  EXPECT_EQ(gov.Enforce(), DegradationLevel::kNormal);
  EXPECT_TRUE(gov.Admit().ok());

  const auto components = gov.AuditComponents();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].name, "stuck");
  EXPECT_EQ(components[0].bytes, 120u);
}

TEST(ResourceGovernorTest, ZeroBudgetsNeverTrip) {
  size_t usage = 1u << 30;
  ResourceGovernor gov(ResourceBudget{0, 0});
  gov.RegisterComponent(
      "huge", [&] { return usage; }, [](double) { FAIL() << "shed called"; });
  EXPECT_EQ(gov.Enforce(), DegradationLevel::kNormal);
  EXPECT_TRUE(gov.Admit().ok());
}

// ---------------------------------------------------------------------------
// AdmitBatch: the write path's admission protocol
// ---------------------------------------------------------------------------

constexpr size_t kWindow = ResourceGovernor::kAuditEveryRecords;

TEST(AdmitBatchTest, FirstCallAuditsBeforeAdmitting) {
  // A restart whose recovered state is already over the hard budget:
  // the very first batch is audited, and refused.
  size_t usage = 1000;
  ResourceGovernor gov(ResourceBudget{/*soft=*/0, /*hard=*/300});
  gov.RegisterComponent(
      "recovered", [&] { return usage; }, [](double) {});
  EXPECT_EQ(gov.AdmitBatch(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.level(), DegradationLevel::kSaturated);
  // The refusal stood only after a second audit.
  EXPECT_EQ(gov.audits(), 2u);
}

TEST(AdmitBatchTest, AuditsOncePerWindowOfAdmittedRecords) {
  size_t usage = 100;
  ResourceGovernor gov(ResourceBudget{/*soft=*/0, /*hard=*/300});
  gov.RegisterComponent(
      "fake", [&] { return usage; }, [](double) {});
  ASSERT_TRUE(gov.AdmitBatch(1).ok());
  EXPECT_EQ(gov.audits(), 1u);
  // Growth inside a window goes unseen: admission runs on the audit.
  usage = 1000;
  ASSERT_TRUE(gov.AdmitBatch(kWindow - 2).ok());
  ASSERT_TRUE(gov.AdmitBatch(1).ok());
  EXPECT_EQ(gov.audits(), 1u);
  // The window is full: the next batch is audited first, and refused.
  EXPECT_EQ(gov.AdmitBatch(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.audits(), 3u);  // the window's audit plus the retry
  // Pressure clears: the refusal's re-audit admits.
  usage = 100;
  ASSERT_TRUE(gov.AdmitBatch(kWindow / 2).ok());
  EXPECT_EQ(gov.audits(), 4u);
  // A batch that would take the window past kWindow records is audited
  // first, so no window admits more than max(kWindow, one batch).
  ASSERT_TRUE(gov.AdmitBatch(kWindow / 2 + 1).ok());
  EXPECT_EQ(gov.audits(), 5u);
  // A batch larger than the window fills one by itself.
  ASSERT_TRUE(gov.AdmitBatch(3 * kWindow).ok());
  EXPECT_EQ(gov.audits(), 6u);
  ASSERT_TRUE(gov.AdmitBatch(1).ok());
  EXPECT_EQ(gov.audits(), 7u);
  // Any audit restarts the window, whoever runs it.
  gov.Enforce();
  ASSERT_TRUE(gov.AdmitBatch(1).ok());
  EXPECT_EQ(gov.audits(), 8u);
}

TEST(AdmitBatchTest, SaturatedRefusesThenReadmitsWhenPressureClears) {
  size_t pressure = 0;
  ResourceGovernor gov(ResourceBudget{/*soft=*/0, /*hard=*/1u << 20});
  gov.RegisterComponent(
      "pressure", [&] { return pressure; }, [](double) {});
  ASSERT_TRUE(gov.AdmitBatch(kWindow).ok());
  // External pressure pushes past the hard budget; shedding cannot
  // reclaim it, so admission fails without aborting.
  pressure = 1u << 30;
  EXPECT_EQ(gov.AdmitBatch(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.level(), DegradationLevel::kSaturated);
  // Pressure clears: the refused batch's re-audit admits again at once,
  // without waiting for a window to fill.
  pressure = 0;
  EXPECT_TRUE(gov.AdmitBatch(1).ok());
  EXPECT_EQ(gov.level(), DegradationLevel::kNormal);
}

TEST(AdmitBatchTest, SoftPressureWidensEngineBound) {
  BurstEngineOptions<Pbe2> opt;
  opt.universe_size = 4;
  opt.grid.depth = 1;
  opt.grid.width = 4;
  opt.grid.identity_hash = true;
  opt.cell.gamma = 1.0;
  BurstEngine2 engine(opt);
  ResourceGovernor gov(ResourceBudget{/*soft=*/1, /*hard=*/0});
  gov.RegisterComponent(
      "engine", [&] { return engine.MemoryUsage(); },
      [&](double factor) { engine.Degrade(factor); });
  const double initial = engine.EffectivePointBound().cell_error;
  for (Timestamp t = 0; t < static_cast<Timestamp>(4 * kWindow); ++t) {
    ASSERT_TRUE(gov.AdmitBatch(1).ok());
    ASSERT_TRUE(engine.Append(static_cast<EventId>(t % 4), t).ok());
  }
  EXPECT_EQ(gov.level(), DegradationLevel::kShedding);
  EXPECT_GT(gov.shed_rounds(), 0u);
  // Degradation is visible: the effective bound widened, and with an
  // identity-hashed leaf the whole bound is the 4 * cell_error term.
  const EffectiveErrorBound bound = engine.EffectivePointBound();
  EXPECT_GT(bound.cell_error, initial);
  EXPECT_DOUBLE_EQ(bound.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(bound.point_bound, 4.0 * bound.cell_error);
}

// ---------------------------------------------------------------------------
// Per-structure hooks
// ---------------------------------------------------------------------------

TEST(Pbe1GovernorHooksTest, CompactEarlyKeepsBoundAndMergeInvariant) {
  Pbe1Options opt;
  opt.buffer_points = 64;
  opt.budget_points = 8;
  Pbe1 pbe(opt);
  std::vector<std::pair<Timestamp, Count>> appended;
  Timestamp t = 0;
  for (int i = 0; i < 30; ++i) {
    t += 1 + (i % 3);
    pbe.Append(t, 1 + (i % 2));
    appended.push_back({t, static_cast<Count>(1 + (i % 2))});
  }
  const size_t before = pbe.MemoryUsage();
  EXPECT_GT(before, 0u);
  pbe.CompactEarly();
  // The last buffered point is retained, so a same-timestamp arrival
  // still merges instead of tripping the monotonicity assert.
  pbe.Append(t, 3);
  appended.back().second += 3;
  for (int i = 0; i < 10; ++i) {
    t += 2;
    pbe.Append(t, 1);
    appended.push_back({t, 1});
  }
  pbe.CompactEarly();
  pbe.Finalize();

  // Exact staircase for comparison.
  auto exact_cum = [&](Timestamp x) {
    double f = 0.0;
    for (const auto& [pt, c] : appended) {
      if (pt <= x) f += static_cast<double>(c);
    }
    return f;
  };
  const double bound = 4.0 * pbe.MaxBufferAreaError();
  for (Timestamp q = 0; q <= t + 4; ++q) {
    for (Timestamp tau : {Timestamp{1}, Timestamp{3}, Timestamp{7}}) {
      const double exact =
          exact_cum(q) - 2.0 * exact_cum(q - tau) + exact_cum(q - 2 * tau);
      const double est = pbe.EstimateBurstiness(q, tau);
      EXPECT_LE(std::abs(est - exact), bound + kAccumTol)
          << "t=" << q << " tau=" << tau;
    }
    // The compacted model must never overestimate F.
    EXPECT_LE(pbe.EstimateCumulative(q), exact_cum(q) + kAccumTol);
  }
}

TEST(Pbe2GovernorHooksTest, WidenGammaReportedHonoredAndSerialized) {
  Pbe2Options opt;
  opt.gamma = 1.0;
  Pbe2 pbe(opt);
  std::vector<std::pair<Timestamp, Count>> appended;
  Timestamp t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 1 + (i % 2);
    pbe.Append(t, 1);
    appended.push_back({t, 1});
  }
  pbe.WidenGamma(4.0);  // mid-stream degradation
  for (int i = 0; i < 20; ++i) {
    t += 2;
    pbe.Append(t, 2);
    appended.push_back({t, 2});
  }
  pbe.Finalize();
  EXPECT_GE(pbe.MaxGamma(), 4.0);
  EXPECT_DOUBLE_EQ(pbe.PointErrorBound(), pbe.MaxGamma());

  auto exact_cum = [&](Timestamp x) {
    double f = 0.0;
    for (const auto& [pt, c] : appended) {
      if (pt <= x) f += static_cast<double>(c);
    }
    return f;
  };
  const double bound = 4.0 * pbe.MaxGamma();
  for (Timestamp q = 0; q <= t + 4; ++q) {
    const double exact =
        exact_cum(q) - 2.0 * exact_cum(q - 3) + exact_cum(q - 6);
    EXPECT_LE(std::abs(pbe.EstimateBurstiness(q, 3) - exact), bound + kAccumTol)
        << "t=" << q;
    EXPECT_LE(pbe.EstimateCumulative(q), exact_cum(q) + kAccumTol);
  }

  // The widened band must survive a round-trip (the restored estimator
  // keeps reporting the true, degraded guarantee).
  BinaryWriter w;
  pbe.Serialize(&w);
  Pbe2 restored(opt);
  BinaryReader r(w.bytes());
  ASSERT_TRUE(restored.Deserialize(&r).ok());
  EXPECT_DOUBLE_EQ(restored.MaxGamma(), pbe.MaxGamma());
}

TEST(MemoryUsageTest, CoversObjectAndGrowsWithState) {
  BurstEngineOptions<Pbe1> opt;
  opt.universe_size = 8;
  opt.grid.depth = 2;
  opt.grid.width = 8;
  opt.cell.buffer_points = 16;
  opt.cell.budget_points = 4;
  opt.heavy_hitter_capacity = 4;
  BurstEngine1 engine(opt);
  const size_t empty = engine.MemoryUsage();
  EXPECT_GT(empty, sizeof(BurstEngine1));
  for (Timestamp t = 0; t < 200; ++t) {
    ASSERT_TRUE(engine.Append(static_cast<EventId>(t % 8), t).ok());
  }
  EXPECT_GT(engine.MemoryUsage(), empty);
}

}  // namespace
}  // namespace bursthist
