// Deterministic overload matrix, driven through the served write path.
//
// Every governed case runs BurstService::HandleLines in process over a
// DurableBurstEngine in a temp directory — the path `bursthist_cli
// serve` runs — with the engine registered on a ResourceGovernor. The
// governor's contract under overload — hot-key skew, a stalled
// watermark filling the re-order buffer, memory budgets, and injected
// IO faults — is (the governor's hard budget is the only bound on the
// re-order buffer, as under serve):
//
//   1. never abort: every ADD answers OK, ERR RESOURCE_EXHAUSTED or
//      ERR OUT_OF_RANGE; queries keep answering;
//   2. stay in budget: usage never exceeds the hard byte budget by
//      more than one audit window's growth, which for this small engine
//      stays under one 64 KiB block;
//   3. stay honest: every accepted record is indexed or buffered,
//      degraded accuracy widens the *reported* effective bound, and
//      every POINT reply lands within the bound= it is stamped with;
//   4. recover: after an injected crash / fsync failure the directory
//      replays to a state byte-consistent with the accepted prefix.
//
// The governed differential family re-runs the harness's stream
// families against ExactBurstStore with the governor actively shedding
// (soft budget of one byte), asserting every POINT / TIME / EVENT
// answer of the served view satisfies the reported — widened — bound.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "core/exact_store.h"
#include "differential/diff_harness.h"
#include "governor/resource_governor.h"
#include "recovery/durable_engine.h"
#include "recovery/fault_env.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"
#include "server/ingest_server.h"
#include "test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace bursthist {
namespace {

using test::kAccumTol;

// The overshoot the small overload engine must stay within.
constexpr size_t kBlockBytes = 64 * 1024;

// ADD lines per HandleLines call: one pipelined recv chunk.
constexpr size_t kChunkLines = 16;

class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = Env::Default();
    dir_ = testing::TempDir() + "/bursthist_overload_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    Clean();
    ASSERT_TRUE(base_->CreateDirIfMissing(dir_).ok());
  }
  void TearDown() override {
    Clean();
    ::rmdir(dir_.c_str());
  }
  void Clean() {
    auto names = base_->ListDir(dir_);
    if (!names.ok()) return;
    for (const auto& n : names.value()) (void)base_->DeleteFile(dir_ + "/" + n);
  }

  Env* base_ = nullptr;
  std::string dir_;
};

// The served write path in process, as perfbench's ServeStage drives
// it: HandleLines called directly (no TCP) over a durable engine whose
// live engine is registered on the governor the way
// `bursthist_cli serve --budget-mb` registers it. A served connection
// thread runs the same HandleLines.
template <typename PbeT>
class Served {
 public:
  using Durable = DurableBurstEngine<PbeT>;

  explicit Served(const ResourceBudget& budget) : governor_(budget) {}

  Status Open(const std::string& dir, const BurstEngineOptions<PbeT>& options) {
    auto opened = Durable::Open(Env::Default(), dir, options);
    if (!opened.ok()) return opened.status();
    durable_ = std::move(opened).value();
    auto* engine = &durable_->engine();
    governor_.RegisterComponent(
        "engine", [engine] { return engine->MemoryUsage(); },
        [engine](double factor) { engine->Degrade(factor); });
    server::BurstServiceOptions service_options;
    service_options.governor = &governor_;
    service_ = std::make_unique<server::BurstService<Durable>>(
        durable_.get(), service_options);
    return Status::OK();
  }

  // One recv chunk of request lines; one reply per line.
  std::vector<std::string> Handle(const std::vector<std::string>& lines) {
    bool close = false;
    const std::string out = service_->HandleLines(lines, &close);
    std::vector<std::string> replies;
    for (size_t begin = 0, end; (end = out.find('\n', begin)) != std::string::npos;
         begin = end + 1) {
      replies.push_back(out.substr(begin, end - begin));
    }
    EXPECT_EQ(replies.size(), lines.size());
    return replies;
  }

  Durable& durable() { return *durable_; }
  const ResourceGovernor& governor() const { return governor_; }

 private:
  std::unique_ptr<Durable> durable_;
  ResourceGovernor governor_;
  std::unique_ptr<server::BurstService<Durable>> service_;
};

std::string AddLine(EventId e, Timestamp t) {
  return "ADD " + std::to_string(e) + " " + std::to_string(t);
}

struct Arrival {
  EventId e;
  Timestamp t;
};

// Hot-key skew under a stalled watermark: only ~1/4 of arrivals advance
// time; the rest are late records landing within the lateness window,
// and half of everything hits event 0, so the re-order buffer always
// holds a backlog.
std::vector<Arrival> OverloadArrivals(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> out;
  Timestamp wm = 100;
  for (size_t i = 0; i < n; ++i) {
    Timestamp t;
    if (rng.NextBelow(4) == 0) {
      t = ++wm;
    } else {
      t = wm - 1 - static_cast<Timestamp>(rng.NextBelow(3));
    }
    const EventId e = rng.NextBelow(2) == 0
                          ? 0
                          : static_cast<EventId>(rng.NextBelow(8));
    out.push_back({e, t});
  }
  return out;
}

BurstEngineOptions<Pbe1> OverloadEngineOptions() {
  BurstEngineOptions<Pbe1> opt;
  opt.universe_size = 8;
  opt.grid.depth = 1;
  opt.grid.width = 8;
  opt.grid.identity_hash = true;
  opt.cell.buffer_points = 16;
  opt.cell.budget_points = 4;
  opt.max_lateness = 4;
  return opt;
}

// Budgets are relative to the engine's empty footprint so the test is
// insensitive to struct-size drift across platforms.
ResourceBudget OverloadBudget(const BurstEngineOptions<Pbe1>& opt) {
  const size_t initial = BurstEngine1(opt).MemoryUsage();
  return ResourceBudget{/*soft=*/initial + 2048,
                        /*hard=*/initial + kBlockBytes};
}

// Serves the overload workload in ADD chunks, asserting the
// never-abort contract on every reply and the budget after every chunk.
// Returns the accepted arrivals.
std::vector<Arrival> RunOverload(Served<Pbe1>* served, size_t n,
                                 uint64_t seed) {
  std::vector<Arrival> accepted;
  const size_t hard = served->governor().budget().hard_bytes;
  const std::vector<Arrival> arrivals = OverloadArrivals(n, seed);
  for (size_t begin = 0; begin < arrivals.size(); begin += kChunkLines) {
    const size_t end = std::min(arrivals.size(), begin + kChunkLines);
    std::vector<std::string> chunk;
    for (size_t i = begin; i < end; ++i) {
      chunk.push_back(AddLine(arrivals[i].e, arrivals[i].t));
    }
    const std::vector<std::string> replies = served->Handle(chunk);
    for (size_t i = 0; i < replies.size(); ++i) {
      const std::string& reply = replies[i];
      if (reply == "OK") {
        accepted.push_back(arrivals[begin + i]);
      } else if (reply.rfind("ERR RESOURCE_EXHAUSTED", 0) != 0 &&
                 reply.rfind("ERR OUT_OF_RANGE", 0) != 0) {
        ADD_FAILURE() << "unexpected reply under overload: " << reply;
      }
    }
    EXPECT_LE(served->governor().TotalUsage(), hard + kBlockBytes);
  }
  return accepted;
}

// "VALUE <v> watermark=<w> bound=<b>" -> {v, b}.
std::pair<double, double> ValueAndBound(const std::string& reply) {
  EXPECT_EQ(reply.rfind("VALUE ", 0), 0u) << reply;
  const size_t at = reply.find(" bound=");
  EXPECT_NE(at, std::string::npos) << reply;
  if (reply.rfind("VALUE ", 0) != 0 || at == std::string::npos) return {0, -1};
  return {std::strtod(reply.c_str() + 6, nullptr),
          std::strtod(reply.c_str() + at + 7, nullptr)};
}

// Every POINT reply must land within the bound= it is stamped with,
// measured against an oracle fed exactly the accepted records.
void ExpectAnswersWithinStampedBound(Served<Pbe1>* served,
                                     std::vector<Arrival> accepted) {
  std::stable_sort(
      accepted.begin(), accepted.end(),
      [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  ExactBurstStore oracle(8);
  Timestamp max_t = 0;
  for (const Arrival& a : accepted) {
    oracle.Append(a.e, a.t);
    max_t = std::max(max_t, a.t);
  }
  // The view the replies below are answered from. Identity-hashed leaf:
  // its whole bound is deterministic, and every reply must be stamped
  // with exactly that bound, so an inflated stamp cannot pass.
  const EffectiveErrorBound bound =
      served->durable().AcquireSnapshot()->bound();
  EXPECT_DOUBLE_EQ(bound.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(bound.point_bound, 4.0 * bound.cell_error);
  for (Timestamp t : {Timestamp{0}, Timestamp{100}, max_t / 2, max_t,
                      max_t + 5}) {
    for (Timestamp tau : {Timestamp{1}, Timestamp{3}, Timestamp{8}}) {
      std::vector<std::string> chunk;
      for (EventId e = 0; e < 8; ++e) {
        chunk.push_back("POINT " + std::to_string(e) + " " + std::to_string(t) +
                        " " + std::to_string(tau));
      }
      const std::vector<std::string> replies = served->Handle(chunk);
      for (EventId e = 0; e < 8 && e < replies.size(); ++e) {
        const auto [est, stamped] = ValueAndBound(replies[e]);
        EXPECT_DOUBLE_EQ(stamped, bound.point_bound) << replies[e];
        const double exact =
            static_cast<double>(oracle.BurstinessAt(e, t, tau));
        EXPECT_LE(std::abs(est - exact), stamped + kAccumTol)
            << "e=" << e << " t=" << t << " tau=" << tau << ": "
            << replies[e];
      }
    }
  }
}

class OverloadMatrixTest : public TempDirTest {};

TEST_F(OverloadMatrixTest, NeverAbortsAndStaysWithinBounds) {
  const auto opt = OverloadEngineOptions();
  Served<Pbe1> served(OverloadBudget(opt));
  ASSERT_TRUE(served.Open(dir_, opt).ok());
  const std::vector<Arrival> accepted =
      RunOverload(&served, 1200, test::TestSeed());
  EXPECT_GT(accepted.size(), 0u);
  // Nothing is shed: every accepted record is in the index or still
  // buffered.
  const BurstEngine1& engine = served.durable().engine();
  EXPECT_EQ(engine.TotalCount() + engine.BufferedCount(), accepted.size());
  ExpectAnswersWithinStampedBound(&served, accepted);
}

TEST_F(OverloadMatrixTest, SheddingEngagedUnderPressure) {
  const auto opt = OverloadEngineOptions();
  Served<Pbe1> served(OverloadBudget(opt));
  ASSERT_TRUE(served.Open(dir_, opt).ok());
  RunOverload(&served, 1200, test::TestSeed());
  // The soft budget is tight (empty footprint + 2KB): the governor must
  // have walked the ladder, and the audit trail shows it.
  EXPECT_GT(served.governor().audits(), 0u);
  EXPECT_GT(served.governor().shed_rounds(), 0u);
}

// ---------------------------------------------------------------------------
// Governed differential family: the reported (widened) bound holds
// against the exact oracle across the harness's stream families.
// ---------------------------------------------------------------------------

/// Differential-harness view over a finalized governed engine whose
/// leaf level is identity-hashed (no collisions): the uniform reported
/// bound EffectivePointBound().point_bound must cover every answer,
/// and the PBE no-overestimate invariant survives degradation (PBE-2's
/// band is one-sided, so widening never lifts F~ above F; PBE-1's
/// early compaction keeps the staircase under the curve).
template <typename PbeT>
struct GovernedView {
  static constexpr bool kPiecewiseConstant = PbeT::kPiecewiseConstant;
  static constexpr bool kExactIntervals = PbeT::kPiecewiseConstant;
  const BurstEngine<PbeT>* engine;  // finalized

  double Estimate(EventId e, Timestamp t, Timestamp tau) const {
    return engine->PointQuery(e, t, tau);
  }
  double EstimateCumulative(EventId e, Timestamp t) const {
    return engine->CumulativeQuery(e, t);
  }
  double Bound(EventId, Timestamp, Timestamp) const {
    return engine->EffectivePointBound().point_bound;
  }
  double CumUpper(EventId, Timestamp) const { return 0.0; }
  double CumLower(EventId) const {
    return engine->EffectivePointBound().cell_error;
  }
  std::vector<Timestamp> Breakpoints(EventId e) const {
    return engine->index().level(0).Breakpoints(e);
  }
  EventId universe() const { return engine->universe_size(); }
};

template <typename PbeT>
BurstEngineOptions<PbeT> DifferentialEngineOptions() {
  BurstEngineOptions<PbeT> opt;
  opt.universe_size = 8;
  opt.grid.depth = 1;
  opt.grid.width = 8;
  opt.grid.identity_hash = true;
  return opt;
}

class GovernedDifferentialTest : public TempDirTest {
 protected:
  template <typename PbeT>
  void Run(const BurstEngineOptions<PbeT>& opt, const std::string& structure) {
    for (const auto family :
         {test::StreamFamily::kUniform, test::StreamFamily::kBursty,
          test::StreamFamily::kStaircase, test::StreamFamily::kDuplicates,
          test::StreamFamily::kOutOfOrder}) {
      test::StreamSpec spec;
      spec.family = family;
      spec.universe = 8;
      spec.n = 512;
      spec.seed = test::CaseSeed(static_cast<uint64_t>(family) + 7);
      spec.max_lateness = 4;
      const EventStream stream =
          test::SortedStream(test::GenerateArrivals(spec));

      ExactBurstStore oracle(spec.universe);
      ASSERT_TRUE(oracle.AppendStream(stream).ok());
      Clean();
      // Soft budget of one byte: always over, so every audit sheds.
      Served<PbeT> served(ResourceBudget{/*soft=*/1, /*hard=*/0});
      ASSERT_TRUE(served.Open(dir_, opt).ok());
      const auto& records = stream.records();
      uint64_t startup_sheds = 0;
      for (size_t begin = 0; begin < records.size(); begin += kChunkLines) {
        std::vector<std::string> chunk;
        for (size_t i = begin; i < std::min(records.size(), begin + kChunkLines);
             ++i) {
          chunk.push_back(AddLine(records[i].id, records[i].time));
        }
        for (const std::string& reply : served.Handle(chunk)) {
          ASSERT_EQ(reply, "OK") << structure << " " << spec.ToString();
        }
        if (begin == 0) startup_sheds = served.governor().shed_rounds();
      }
      // The first chunk's audit sheds on a still-empty engine; the rest
      // of the ingest must have shed on a populated one.
      ASSERT_GT(served.governor().shed_rounds(), startup_sheds)
          << structure << " " << spec.ToString();

      // The view the service would answer from after this ingest.
      const auto view = served.durable().AcquireSnapshot(records.size());
      GovernedView<PbeT> governed{&view->engine()};
      const test::QueryPlan plan = test::MakeQueryPlan(oracle, spec.seed);
      test::Violations violations;
      test::CheckStructure(governed, oracle, plan,
                           structure + " " + test::FamilyName(family),
                           &violations);
      for (const auto& v : violations) {
        ADD_FAILURE() << v << "\n  spec: " << spec.ToString();
      }
    }
  }
};

TEST_F(GovernedDifferentialTest, Pbe1AnswersHonorReportedBound) {
  Run(DifferentialEngineOptions<Pbe1>(), "gov-pbe1");
}

TEST_F(GovernedDifferentialTest, Pbe2AnswersHonorWidenedBound) {
  auto opt = DifferentialEngineOptions<Pbe2>();
  opt.cell.gamma = 0.5;
  Run(opt, "gov-pbe2");
}

// ---------------------------------------------------------------------------
// Injected IO faults: WAL retry, fsync poisoning, snapshot cleanup.
// ---------------------------------------------------------------------------

struct Record {
  EventId e;
  Timestamp t;
};

std::vector<Record> Workload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> out;
  Timestamp t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    out.push_back({static_cast<EventId>(rng.NextBelow(8)), t});
  }
  return out;
}

BurstEngineOptions<Pbe1> SmallOptions() {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 8;
  o.grid.depth = 1;
  o.grid.width = 8;
  o.cell.buffer_points = 16;
  o.cell.budget_points = 4;
  return o;
}

std::vector<uint8_t> Ser(const BurstEngine1& e) {
  BinaryWriter w;
  e.Serialize(&w);
  return w.TakeBytes();
}

void ExpectRecoversPrefix(Env* env, const std::string& dir,
                          const std::vector<Record>& workload,
                          size_t expected_count) {
  auto recovered = RecoverBurstEngine<Pbe1>(env, dir, SmallOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value().TotalCount(), expected_count);
  BurstEngine1 reference(SmallOptions());
  for (size_t i = 0; i < expected_count; ++i) {
    ASSERT_TRUE(reference.Append(workload[i].e, workload[i].t).ok());
  }
  EXPECT_EQ(Ser(recovered.value()), Ser(reference));
}

class OverloadFaultTest : public TempDirTest {};

TEST_F(OverloadFaultTest, WalAppendRetriesThroughTransientOutage) {
  FaultInjectionEnv fault(base_);
  uint32_t backoffs = 0;
  uint64_t observed_writes = 0;
  fault.set_write_observer([&] { ++observed_writes; });  // slow-disk seam
  DurabilityOptions durability;
  durability.wal_append_retries = 3;
  durability.wal_retry_backoff = [&](uint32_t) { ++backoffs; };
  auto durable =
      DurableBurstEngine1::Open(&fault, dir_, SmallOptions(), durability);
  ASSERT_TRUE(durable.ok());

  const auto workload = Workload(8, test::TestSeed());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  // One transient ENOSPC: the append retries onto a fresh, clean
  // segment and succeeds without the caller noticing.
  fault.FailWritesForNext(1);
  ASSERT_TRUE(durable.value()->Append(workload[4].e, workload[4].t).ok());
  EXPECT_EQ(backoffs, 1u);
  for (size_t i = 5; i < 8; ++i) {
    ASSERT_TRUE(
        durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  ASSERT_TRUE(durable.value()->Sync().ok());
  EXPECT_GT(observed_writes, 0u);
  durable.value().reset();
  // The retry's segment switcheroo is invisible to recovery: every
  // acknowledged record replays, byte-consistent with the reference.
  ExpectRecoversPrefix(base_, dir_, workload, 8);
}

TEST_F(OverloadFaultTest, WalRetryExhaustionSurfacesErrorKeepsPrefix) {
  FaultInjectionEnv fault(base_);
  DurabilityOptions durability;
  durability.wal_append_retries = 2;
  auto durable =
      DurableBurstEngine1::Open(&fault, dir_, SmallOptions(), durability);
  ASSERT_TRUE(durable.ok());

  const auto workload = Workload(6, test::TestSeed());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  // A persistent outage outlasts the retries: the error surfaces (the
  // original IO error, not a cleanup side-effect) and the record is
  // NOT ingested.
  fault.FailWritesForNext(100);
  const Status s = durable.value()->Append(workload[4].e, workload[4].t);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(durable.value()->engine().TotalCount(), 4u);
  durable.value().reset();  // crash
  fault.Disarm();
  ExpectRecoversPrefix(base_, dir_, workload, 4);
}

TEST_F(OverloadFaultTest, FsyncFailurePoisonsToReadOnlyNeverRetries) {
  FaultInjectionEnv fault(base_);
  auto durable = DurableBurstEngine1::Open(&fault, dir_, SmallOptions());
  ASSERT_TRUE(durable.ok());

  const auto workload = Workload(5, test::TestSeed());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  ASSERT_FALSE(durable.value()->read_only());
  // The fsync fails once. The kernel may have dropped the dirty pages,
  // so a retry proving anything is impossible — the engine must fail
  // over to read-only degraded mode, not retry.
  fault.FailNthSync(1);
  const Status sync = durable.value()->Sync();
  EXPECT_EQ(sync.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(durable.value()->read_only());
  // Disarming proves the poisoning is sticky: the device is healthy
  // again, yet appends, syncs, and checkpoints all stay refused.
  fault.Disarm();
  EXPECT_EQ(durable.value()->Append(workload[3].e, workload[3].t).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(durable.value()->Sync().code(), StatusCode::kUnavailable);
  EXPECT_EQ(durable.value()->Checkpoint().code(), StatusCode::kUnavailable);
  EXPECT_EQ(durable.value()->engine().TotalCount(), 3u);
  // Queries still serve from the degraded engine.
  auto snapshot = durable.value()->engine();
  snapshot.set_batch_append_observer(nullptr);
  snapshot.Finalize();
  (void)snapshot.PointQuery(0, workload[2].t, 1);
  durable.value().reset();
  // Restart is the recovery path: what reached disk replays.
  ExpectRecoversPrefix(base_, dir_, workload, 3);
}

TEST_F(OverloadFaultTest, SnapshotWriteFailureLeavesNoTempFile) {
  FaultInjectionEnv fault(base_);
  const std::vector<uint8_t> blob(256, 0xab);
  fault.FailWritesForNext(1);
  const Status s =
      WriteSnapshotFile(&fault, dir_, /*generation=*/1,
                        WalPosition{1, kWalHeaderSize}, blob);
  EXPECT_FALSE(s.ok());
  // The failed write's temp file is unlinked — a full disk is not made
  // fuller by checkpoint attempts — and no snapshot is visible.
  auto names = base_->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const auto& name : names.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  auto gens = ListSnapshots(base_, dir_);
  ASSERT_TRUE(gens.ok());
  EXPECT_TRUE(gens.value().empty());
  // The disk heals; the same write now lands and verifies.
  fault.Disarm();
  ASSERT_TRUE(WriteSnapshotFile(&fault, dir_, 1,
                                WalPosition{1, kWalHeaderSize}, blob)
                  .ok());
  auto snap = ReadSnapshotFile(base_, dir_, 1);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().blob, blob);
}

}  // namespace
}  // namespace bursthist
