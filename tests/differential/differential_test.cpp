// Differential guarantee checks against the exact oracle (the PR's
// tentpole): randomized streams from five generator families, fed to
// the per-event PBEs, the CM-PBE grids, and every BurstEngine variant,
// with the paper's Lemma 1 / Lemma 4 / Lemma 5 error bounds COMPUTED
// per run from the structures' own state (see diff_harness.h).
//
// Reproducing a failure: every violation message carries the full
// generator spec and the sweep prints a one-line reproducer of the form
//
//   BURSTHIST_DIFF_SPEC='bursty universe=8 n=17 seed=123 lateness=0'
//     ctest -R differential_test --output-on-failure
//
// which re-runs exactly that (minimized) stream through the Repro test
// below. BURSTHIST_TEST_SEED reseeds the whole sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>
#include <unistd.h>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "recovery/durable_engine.h"
#include "test_util.h"
#include "util/env.h"

namespace bursthist {
namespace {

using test::DiffConfig;
using test::StreamFamily;
using test::StreamSpec;

constexpr StreamFamily kFamilies[] = {
    StreamFamily::kUniform, StreamFamily::kBursty, StreamFamily::kStaircase,
    StreamFamily::kDuplicates, StreamFamily::kOutOfOrder};

StreamSpec SweepSpec(StreamFamily family, size_t i) {
  StreamSpec spec;
  spec.family = family;
  spec.universe = 8;
  spec.n = 224;
  spec.seed = test::CaseSeed(1000 * (static_cast<uint64_t>(family) + 1) + i);
  spec.max_lateness = family == StreamFamily::kOutOfOrder ? 6 : 0;
  return spec;
}

void ReportViolations(const StreamSpec& spec, const DiffConfig& config,
                      const test::Violations& violations) {
  const StreamSpec minimized = test::MinimizeStructureFailure(spec, config);
  std::string msg = "guarantee violation(s) for spec {" + spec.ToString() +
                    "}, minimized to {" + minimized.ToString() +
                    "}\nreproduce: " + test::ReproCommand(minimized) + "\n";
  for (const auto& v : violations) msg += "  " + v + "\n";
  ADD_FAILURE() << msg;
}

// The acceptance-criteria sweep: >= 4 stream families x >= 100 seeds,
// every structure, all three query types, computed bounds.
TEST(DifferentialSweep, LemmaBoundsAcrossFamiliesAndSeeds) {
  const DiffConfig config = DiffConfig::Small();
  constexpr size_t kSeedsPerFamily = 110;
  size_t failures = 0;
  for (StreamFamily family : kFamilies) {
    for (size_t i = 0; i < kSeedsPerFamily; ++i) {
      const StreamSpec spec = SweepSpec(family, i);
      const auto violations = test::RunStructureDifferential(spec, config);
      if (!violations.empty()) {
        ReportViolations(spec, config, violations);
        if (++failures >= 3) return;  // enough to debug; stop the sweep
      }
    }
  }
}

// Reruns one spec from the environment — the reproducer entry point
// printed by ReportViolations. Skipped unless BURSTHIST_DIFF_SPEC is
// set.
TEST(DifferentialRepro, FromEnvironmentSpec) {
  const char* text = std::getenv("BURSTHIST_DIFF_SPEC");
  if (text == nullptr) {
    GTEST_SKIP() << "set BURSTHIST_DIFF_SPEC to replay a failing spec";
  }
  StreamSpec spec;
  ASSERT_TRUE(StreamSpec::Parse(text, &spec))
      << "unparsable BURSTHIST_DIFF_SPEC: " << text;
  const DiffConfig config = DiffConfig::Small();
  const auto violations = test::RunStructureDifferential(spec, config);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

// ---------------------------------------------------------------------------
// Engine variants: serial vs serialize-roundtrip vs durable+recovered
// must agree with each other, and the leaf level must honor its
// computed grid band against the oracle.
// ---------------------------------------------------------------------------

using Engine1 = BurstEngine<Pbe1>;

BurstEngineOptions<Pbe1> EngineOptions(EventId universe, Timestamp lateness) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = universe;
  o.grid.depth = 2;
  o.grid.width = 7;
  // Lossy cells (6 of every 24 buffered corners kept): the staircase
  // DP drops corners, so the leaf band check runs with a non-zero
  // per-buffer error Delta, and the round-tripped and recovered
  // engines must reproduce the serial engine's compression exactly.
  // Collisions (width 7 over a universe of 24) keep the grid band
  // check non-trivial.
  o.cell.buffer_points = 24;
  o.cell.budget_points = 6;
  o.heavy_hitter_capacity = 4;
  o.max_lateness = lateness;
  return o;
}

void ExpectEnginesAgree(const Engine1& a, const Engine1& b,
                        const ExactBurstStore& oracle,
                        const test::QueryPlan& plan, const std::string& label) {
  for (const auto& [t, tau] : plan.points) {
    for (EventId e = 0; e < a.universe_size(); ++e) {
      EXPECT_NEAR(a.PointQuery(e, t, tau), b.PointQuery(e, t, tau),
                  test::kIdentityTol)
          << label << " e=" << e << " t=" << t << " tau=" << tau;
      EXPECT_NEAR(a.CumulativeQuery(e, t), b.CumulativeQuery(e, t),
                  test::kIdentityTol)
          << label << " e=" << e << " t=" << t;
    }
  }
  for (const auto& q : plan.events) {
    EXPECT_EQ(a.BurstyEventQuery(q.t, q.theta, q.tau),
              b.BurstyEventQuery(q.t, q.theta, q.tau))
        << label << " t=" << q.t << " theta=" << q.theta;
  }
  (void)oracle;
}

// The dyadic BURSTY EVENT invariants that hold regardless of pruning
// noise: the reported set is sorted, duplicate-free, and a subset of
// the leaf scan (the leaf check IS PointQuery >= theta); and any event
// whose EXACT burstiness clears theta by the leaf band appears in the
// leaf scan.
void CheckEngineEventInvariants(const Engine1& engine,
                                const ExactBurstStore& oracle,
                                const test::GridOracleBounds<Pbe1>& bounds,
                                const test::QueryPlan& plan,
                                const std::string& label) {
  for (const auto& q : plan.events) {
    const auto reported = engine.BurstyEventQuery(q.t, q.theta, q.tau);
    EXPECT_TRUE(std::is_sorted(reported.begin(), reported.end())) << label;
    EXPECT_EQ(std::adjacent_find(reported.begin(), reported.end()),
              reported.end())
        << label << ": duplicate ids reported";
    std::vector<EventId> leaf_scan;
    for (EventId e = 0; e < engine.universe_size(); ++e) {
      if (engine.PointQuery(e, q.t, q.tau) >= q.theta) leaf_scan.push_back(e);
    }
    EXPECT_TRUE(std::includes(leaf_scan.begin(), leaf_scan.end(),
                              reported.begin(), reported.end()))
        << label << " t=" << q.t << " theta=" << q.theta
        << ": reported set is not a subset of the leaf scan";
    for (EventId e = 0; e < engine.universe_size(); ++e) {
      const double exact =
          static_cast<double>(oracle.BurstinessAt(e, q.t, q.tau));
      const double band = bounds.BurstinessBound(e, q.t, q.tau);
      const bool in_leaf_scan =
          std::binary_search(leaf_scan.begin(), leaf_scan.end(), e);
      EXPECT_TRUE(in_leaf_scan || exact < q.theta + band + 1e-6)
          << label << " t=" << q.t << " theta=" << q.theta << ": event " << e
          << " with exact b=" << exact
          << " clears theta+band=" << q.theta + band
          << " but the leaf scan misses it";
    }
  }
  // TOP-K: every (id, value) pair must echo the leaf estimate, in
  // descending value order.
  for (const auto& q : plan.events) {
    const auto top = engine.TopKBurstyEvents(q.t, 3, q.tau);
    double prev = std::numeric_limits<double>::infinity();
    for (const auto& [e, b] : top) {
      EXPECT_NEAR(b, engine.PointQuery(e, q.t, q.tau), test::kIdentityTol)
          << label;
      EXPECT_LE(b, prev + test::kIdentityTol) << label;
      prev = b;
    }
  }
}

TEST(DifferentialEngine, VariantsAgreeAndHonorLeafBand) {
  Env* env = Env::Default();
  const DiffConfig config = DiffConfig::Small();
  size_t run = 0;
  for (StreamFamily family : kFamilies) {
    for (size_t i = 0; i < 2; ++i, ++run) {
      StreamSpec spec;
      spec.family = family;
      spec.universe = 24;
      spec.n = 400;
      spec.seed = test::CaseSeed(9000 + run);
      spec.max_lateness = family == StreamFamily::kOutOfOrder ? 6 : 0;
      SCOPED_TRACE(spec.ToString());

      const auto arrivals = test::GenerateArrivals(spec);
      const EventStream sorted = test::SortedStream(arrivals);
      ExactBurstStore oracle(spec.universe);
      ASSERT_TRUE(oracle.AppendStream(sorted).ok());
      const test::QueryPlan plan = test::MakeQueryPlan(oracle, spec.seed);

      // Serial, in arrival order (buffered re-ordering for the
      // out-of-order family).
      Engine1 serial(EngineOptions(spec.universe, spec.max_lateness));
      for (const auto& r : arrivals) {
        ASSERT_TRUE(serial.Append(r.id, r.time).ok());
      }
      serial.Finalize();

      // Serialize / deserialize round-trip of the serial engine.
      BinaryWriter w;
      serial.Serialize(&w);
      Engine1 roundtrip(EngineOptions(spec.universe, spec.max_lateness));
      BinaryReader r(w.bytes());
      ASSERT_TRUE(roundtrip.Deserialize(&r).ok());

      // Durable: append through the WAL tee, checkpoint mid-stream,
      // then recover read-only — must match the never-persisted serial
      // engine exactly (PR-1 x PR-2 interaction surface).
      const std::string dir = testing::TempDir() + "/bursthist_diff_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(run);
      {
        auto durable = DurableBurstEngine<Pbe1>::Open(
            env, dir, EngineOptions(spec.universe, spec.max_lateness));
        ASSERT_TRUE(durable.ok());
        size_t appended = 0;
        for (const auto& re : arrivals) {
          ASSERT_TRUE(durable.value()->Append(re.id, re.time).ok());
          if (++appended == arrivals.size() / 2) {
            ASSERT_TRUE(durable.value()->Checkpoint().ok());
          }
        }
        ASSERT_TRUE(durable.value()->Sync().ok());
      }  // "crash": drop the handle without a final checkpoint
      auto recovered = RecoverBurstEngine<Pbe1>(
          env, dir, EngineOptions(spec.universe, spec.max_lateness));
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      recovered.value().Finalize();

      ExpectEnginesAgree(serial, roundtrip, oracle, plan,
                         "serial-vs-roundtrip");
      ExpectEnginesAgree(serial, recovered.value(), oracle, plan,
                         "serial-vs-recovered");

      // Leaf-level band vs the oracle, plus BURSTY EVENT invariants.
      test::GridOracleBounds<Pbe1> bounds(serial.index().level(0), oracle);
      test::GridView<Pbe1> leaf{&serial.index().level(0), &bounds,
                                spec.universe};
      test::Violations violations;
      CheckStructure(leaf, oracle, plan, "ENGINE-LEAF (" + spec.ToString() +
                     ")", &violations, config.max_violations);
      for (const auto& v : violations) ADD_FAILURE() << v;
      CheckEngineEventInvariants(serial, oracle, bounds, plan, "serial");

      // Cleanup.
      auto names = env->ListDir(dir);
      if (names.ok()) {
        for (const auto& n : names.value()) (void)env->DeleteFile(dir + "/" + n);
      }
      ::rmdir(dir.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Lemma 5, statistical form: with the kMin estimator, eps = e / width
// and delta = e^-depth computed from the ACTUAL grid shape, the rate
// of |b~ - b| > eps*N + 4*Delta across independent hash seeds must not
// exceed delta (plus 3-sigma binomial slack). The deterministic
// per-instance band above is the stronger check; this one pins the
// guarantee's advertised (eps, delta) form.
// ---------------------------------------------------------------------------
TEST(DifferentialSweep, CmPbeLemma5StatisticalBound) {
  StreamSpec spec;
  spec.family = StreamFamily::kBursty;
  spec.universe = 8;
  spec.n = 200;
  spec.seed = test::CaseSeed(424242);
  const auto stream = test::SortedStream(test::GenerateArrivals(spec));
  ExactBurstStore oracle(spec.universe);
  ASSERT_TRUE(oracle.AppendStream(stream).ok());
  const test::QueryPlan plan = test::MakeQueryPlan(oracle, spec.seed);
  ASSERT_GE(plan.points.size(), 5u);

  CmPbeOptions grid_opts;
  grid_opts.depth = 3;
  grid_opts.width = 8;
  grid_opts.estimator = CmEstimator::kMin;
  const double eps = std::exp(1.0) / static_cast<double>(grid_opts.width);
  const double delta = std::exp(-static_cast<double>(grid_opts.depth));

  Pbe1Options cell;
  cell.buffer_points = 24;
  cell.budget_points = 6;

  constexpr size_t kTrialsPerSeed = 5;
  constexpr size_t kSeeds = 120;
  size_t trials = 0, violations = 0;
  for (size_t s = 0; s < kSeeds; ++s) {
    grid_opts.seed = test::CaseSeed(50000 + s);
    CmPbe<Pbe1> grid(grid_opts, cell);
    for (const auto& r : stream.records()) grid.Append(r.id, r.time);
    grid.Finalize();
    double max_delta = 0.0;
    for (size_t row = 0; row < grid.depth(); ++row) {
      for (size_t slot = 0; slot < grid.width(); ++slot) {
        max_delta = std::max(max_delta,
                             test::CellPointError(grid.CellAt(row, slot)));
      }
    }
    const double bound =
        eps * static_cast<double>(grid.TotalCount()) + 4.0 * max_delta;
    for (size_t q = 0; q < kTrialsPerSeed; ++q) {
      const auto& [t, tau] = plan.points[q % plan.points.size()];
      const EventId e = static_cast<EventId>(q % spec.universe);
      const double exact =
          static_cast<double>(oracle.BurstinessAt(e, t, tau));
      const double est = grid.EstimateBurstiness(e, t, tau);
      ++trials;
      if (std::abs(est - exact) > bound + test::kAccumTol) ++violations;
    }
  }
  // Binomial(trials, delta) with 3-sigma headroom: flakes only if the
  // guarantee is genuinely broken, not on an unlucky seed.
  const double mean = delta * static_cast<double>(trials);
  const double sigma =
      std::sqrt(static_cast<double>(trials) * delta * (1.0 - delta));
  EXPECT_LE(static_cast<double>(violations), mean + 3.0 * sigma)
      << "Lemma 5 violation rate " << violations << "/" << trials
      << " exceeds delta=" << delta << " plus 3 sigma";
}

}  // namespace
}  // namespace bursthist
