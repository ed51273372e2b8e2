// Deterministic crash-recovery matrix.
//
// Every injected fault — an in-flight ENOSPC or torn write on any Nth
// write of the workload, or a post-hoc truncation / bit flip anywhere
// in the surviving files — must leave the directory in one of exactly
// two states:
//
//   1. recoverable to a PREFIX-CONSISTENT engine: query-identical to a
//      reference engine fed the first K workload records, where K is
//      however many appends the recovered engine holds; or
//   2. cleanly unrecoverable: RecoverBurstEngine returns a non-OK
//      Status.
//
// Never an assert, a hang, or an engine that answers queries from a
// history that was not some prefix of what was acknowledged.
//
// BurstEngine<Pbe1> state is a deterministic, losslessly-serializable
// function of its append sequence, so prefix consistency is checked as
// byte equality of serialized state — the strongest form of
// query-identical. A separate band test covers Pbe2, whose live
// serialization restarts one polygon window (gamma guarantee intact,
// bytes not identical).

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "recovery/durable_engine.h"
#include "recovery/fault_env.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"
#include "test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace bursthist {
namespace {

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

// The recovered engine must equal the reference fed its own TotalCount
// of workload records (each append has count 1, so TotalCount == K).
void ExpectPrefixConsistent(BurstEngine1&& recovered,
                            const std::vector<Record>& workload,
                            size_t acked) {
  const uint64_t k = recovered.TotalCount();
  ASSERT_LE(k, workload.size());
  // Durability contract: everything acknowledged BEFORE the last
  // checkpoint-or-sync barrier must survive. The matrix only crashes
  // after full-workload sync when no fault fired, so here we just
  // require a prefix; `acked` bounds it from above.
  ASSERT_LE(k, acked);
  BurstEngine1 reference(SmallOptions());
  for (uint64_t i = 0; i < k; ++i) {
    ASSERT_TRUE(reference.Append(workload[i].e, workload[i].t).ok());
  }
  EXPECT_EQ(Ser(recovered), Ser(reference)) << "recovered K=" << k;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = Env::Default();
    dir_ = testing::TempDir() + "/bursthist_fault_" +
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

  // Runs the workload (checkpoint halfway) against `env`; returns how
  // many appends were acknowledged before the first failure. A fault
  // anywhere — open, append, checkpoint — just ends the "process".
  size_t RunWorkload(Env* env, const std::vector<Record>& workload) {
    auto durable = DurableBurstEngine1::Open(env, dir_, SmallOptions());
    if (!durable.ok()) return 0;
    size_t acked = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (i == workload.size() / 2) {
        if (!durable.value()->Checkpoint().ok()) return acked;
      }
      if (!durable.value()->Append(workload[i].e, workload[i].t).ok()) {
        return acked;
      }
      ++acked;
    }
    (void)durable.value()->Sync();
    return acked;
  }

  Env* base_ = nullptr;
  std::string dir_;
};

// In-flight faults: fail write #N, for every N the workload issues,
// losing the whole buffer (pure ENOSPC).
TEST_F(FaultMatrixTest, EnospcOnEveryNthWrite) {
  const auto workload = Workload(60, 31);
  // Count the writes a clean run issues.
  FaultInjectionEnv counter(base_);
  RunWorkload(&counter, workload);
  const uint64_t total_writes = counter.writes_issued();
  ASSERT_GT(total_writes, 10u);
  Clean();

  for (uint64_t n = 1; n <= total_writes; ++n) {
    SCOPED_TRACE("fail write " + std::to_string(n));
    FaultInjectionEnv faulty(base_);
    faulty.FailNthWrite(n, /*persist_prefix_bytes=*/0);
    const size_t acked = RunWorkload(&faulty, workload);
    if (!faulty.fault_fired()) {
      EXPECT_EQ(acked, workload.size());
    }

    auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
    if (recovered.ok()) {
      ExpectPrefixConsistent(std::move(recovered).value(), workload,
                             workload.size());
    } else {
      EXPECT_FALSE(recovered.status().message().empty());
    }
    Clean();
  }
}

// Torn writes: the failing write persists only a prefix of its buffer
// — every prefix length of a mid-workload record write.
TEST_F(FaultMatrixTest, TornWriteAtEveryByteOffset) {
  const auto workload = Workload(40, 32);
  FaultInjectionEnv counter(base_);
  RunWorkload(&counter, workload);
  const uint64_t total_writes = counter.writes_issued();
  Clean();

  // A WAL event record frame is 29 bytes; sweep every tear length on a
  // sample of writes (every write x every offset is quadratic — the
  // stride keeps the matrix dense enough to hit header, CRC, and
  // payload tears while staying fast).
  for (uint64_t n = 1; n <= total_writes; n += 3) {
    for (uint64_t tear = 1; tear <= 28; tear += 5) {
      SCOPED_TRACE("write " + std::to_string(n) + " torn at " +
                   std::to_string(tear));
      FaultInjectionEnv faulty(base_);
      faulty.FailNthWrite(n, tear);
      RunWorkload(&faulty, workload);

      auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
      if (recovered.ok()) {
        ExpectPrefixConsistent(std::move(recovered).value(), workload,
                               workload.size());
      }
      Clean();
    }
  }
}

// Post-hoc media faults: truncate every surviving file to every
// (strided) length after a clean run + crash.
TEST_F(FaultMatrixTest, TruncationSweepOverSurvivingFiles) {
  const auto workload = Workload(60, 33);
  RunWorkload(base_, workload);
  auto names = base_->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  ASSERT_FALSE(names.value().empty());

  for (const auto& name : names.value()) {
    const std::string path = dir_ + "/" + name;
    auto pristine = base_->ReadFileBytes(path);
    ASSERT_TRUE(pristine.ok());
    const uint64_t size = pristine.value().size();
    for (uint64_t keep = 0; keep < size; keep += (size > 512 ? 13 : 1)) {
      SCOPED_TRACE(name + " truncated to " + std::to_string(keep));
      ASSERT_TRUE(TruncateFileTo(base_, path, keep).ok());
      auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
      if (recovered.ok()) {
        ExpectPrefixConsistent(std::move(recovered).value(), workload,
                               workload.size());
      }
      // Restore.
      auto file = base_->NewWritableFile(path);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(file.value()->Append(pristine.value()).ok());
      ASSERT_TRUE(file.value()->Close().ok());
    }
  }
}

// Post-hoc media faults: flip a bit at every (strided) byte of every
// surviving file.
TEST_F(FaultMatrixTest, BitFlipSweepOverSurvivingFiles) {
  const auto workload = Workload(60, 34);
  RunWorkload(base_, workload);
  auto names = base_->ListDir(dir_);
  ASSERT_TRUE(names.ok());

  for (const auto& name : names.value()) {
    const std::string path = dir_ + "/" + name;
    auto pristine = base_->ReadFileBytes(path);
    ASSERT_TRUE(pristine.ok());
    const uint64_t size = pristine.value().size();
    for (uint64_t off = 0; off < size; off += (size > 512 ? 7 : 1)) {
      SCOPED_TRACE(name + " bit flip at " + std::to_string(off));
      ASSERT_TRUE(FlipBit(base_, path, off, off % 8).ok());
      auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
      if (recovered.ok()) {
        ExpectPrefixConsistent(std::move(recovered).value(), workload,
                               workload.size());
      }
      auto file = base_->NewWritableFile(path);
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(file.value()->Append(pristine.value()).ok());
      ASSERT_TRUE(file.value()->Close().ok());
    }
  }
}

// A WAL append that fails must not ingest the record: the engine and
// the log stay in agreement.
TEST_F(FaultMatrixTest, FailedLogWriteDoesNotIngest) {
  const auto workload = Workload(10, 35);
  FaultInjectionEnv faulty(base_);
  auto durable = DurableBurstEngine1::Open(&faulty, dir_, SmallOptions());
  ASSERT_TRUE(durable.ok());
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  faulty.FailNthWrite(1);
  Status st = durable.value()->Append(workload[5].e, workload[5].t);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(durable.value()->engine().TotalCount(), 5u);

  // The directory still recovers to exactly the 5 acknowledged
  // records.
  auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().TotalCount(), 5u);
}

// Pbe2's live serialization restarts one polygon window, so recovered
// state is not byte-identical — but every query must stay inside the
// gamma band the estimator guarantees, and counts must match exactly.
TEST_F(FaultMatrixTest, Pbe2RecoveryStaysInGammaBand) {
  BurstEngineOptions<Pbe2> o;
  o.universe_size = 8;
  o.grid.depth = 1;
  o.grid.width = 8;
  o.cell.gamma = 2.0;
  const auto workload = Workload(300, 36);

  {
    auto durable = DurableBurstEngine<Pbe2>::Open(base_, dir_, o);
    ASSERT_TRUE(durable.ok());
    for (size_t i = 0; i < workload.size(); ++i) {
      if (i == 150) {
        ASSERT_TRUE(durable.value()->Checkpoint().ok());
      }
      ASSERT_TRUE(durable.value()->Append(workload[i].e, workload[i].t).ok());
    }
    ASSERT_TRUE(durable.value()->Sync().ok());
  }
  auto recovered = RecoverBurstEngine<Pbe2>(base_, dir_, o);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value().TotalCount(), workload.size());

  BurstEngine<Pbe2> reference(o);
  for (const auto& r : workload) {
    ASSERT_TRUE(reference.Append(r.e, r.t).ok());
  }
  recovered.value().Finalize();
  reference.Finalize();
  const Timestamp horizon = workload.back().t;
  for (EventId e = 0; e < 8; ++e) {
    for (Timestamp t = 0; t <= horizon; t += 11) {
      const double ref = reference.CumulativeQuery(e, t);
      const double got = recovered.value().CumulativeQuery(e, t);
      // Both estimates gamma-approximate the same true curve, so they
      // agree within a factor of gamma^2 (and exactly at zero).
      if (ref == 0.0) {
        EXPECT_EQ(got, 0.0) << "e=" << e << " t=" << t;
      } else {
        EXPECT_LE(got, ref * o.cell.gamma * o.cell.gamma + 1e-9);
        EXPECT_GE(got, ref / (o.cell.gamma * o.cell.gamma) - 1e-9);
      }
    }
  }
}

// Out-of-order streams meet the crash path: late-but-admissible
// records sit in the re-order buffer when the process dies, so the
// snapshot's pending state and the WAL tail must reassemble the exact
// buffered engine. Differential check: the recovered engine must be
// byte-identical to a never-crashed engine fed the same acknowledged
// arrival prefix, at several crash points and two torn-tail lengths.
TEST_F(FaultMatrixTest, OutOfOrderCrashRecoveryMatchesUncrashed) {
  test::StreamSpec spec;
  spec.family = test::StreamFamily::kOutOfOrder;
  spec.universe = 8;  // matches SmallOptions()
  spec.n = 90;
  spec.seed = test::CaseSeed(4040);
  spec.max_lateness = 5;
  const auto arrivals = test::GenerateArrivals(spec);
  auto options = SmallOptions();
  options.max_lateness = 5;

  for (size_t cut : {arrivals.size() / 4, arrivals.size() / 2,
                     arrivals.size() - 1, arrivals.size()}) {
    for (uint64_t tear : {uint64_t{0}, uint64_t{9}}) {
      SCOPED_TRACE("cut=" + std::to_string(cut) +
                   " tear=" + std::to_string(tear));
      Clean();
      {
        auto durable = DurableBurstEngine<Pbe1>::Open(base_, dir_, options);
        ASSERT_TRUE(durable.ok());
        for (size_t i = 0; i < cut; ++i) {
          ASSERT_TRUE(
              durable.value()->Append(arrivals[i].id, arrivals[i].time).ok());
          if (i == cut / 2) {
            ASSERT_TRUE(durable.value()->Checkpoint().ok());
          }
        }
        ASSERT_TRUE(durable.value()->Sync().ok());
      }  // crash: drop the handle with records still buffered

      if (tear > 0) {
        // Shear the synced WAL tail mid-record, as a real crash during
        // the *next* (unacknowledged) append would: recovery must fall
        // back to the longest clean record prefix.
        auto names = base_->ListDir(dir_);
        ASSERT_TRUE(names.ok());
        bool sheared = false;
        for (const auto& name : names.value()) {
          if (name.rfind("wal-", 0) != 0) continue;
          const std::string path = dir_ + "/" + name;
          auto bytes = base_->ReadFileBytes(path);
          ASSERT_TRUE(bytes.ok());
          if (bytes.value().size() <= tear) continue;
          ASSERT_TRUE(
              TruncateFileTo(base_, path, bytes.value().size() - tear).ok());
          sheared = true;
        }
        ASSERT_TRUE(sheared) << "no WAL segment found to shear";
      }

      auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, options);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      const uint64_t k = recovered.value().TotalCount() +
                         recovered.value().BufferedCount();
      ASSERT_LE(k, cut);
      if (tear == 0) {
        ASSERT_EQ(k, cut);  // synced prefix fully survives
      }

      BurstEngine<Pbe1> reference(options);
      for (uint64_t i = 0; i < k; ++i) {
        ASSERT_TRUE(reference.Append(arrivals[i].id, arrivals[i].time).ok());
      }
      EXPECT_EQ(Ser(recovered.value()), Ser(reference));

      // The buffered records must also finalize identically: drain
      // both and compare point answers over the whole history.
      recovered.value().Finalize();
      reference.Finalize();
      EXPECT_EQ(Ser(recovered.value()), Ser(reference));
    }
  }
}

// ---------------------------------------------------------------------------
// Batched appends meet the fault matrix. AppendBatch's abort contract:
// a batch whose WAL tee fails applies NOTHING (all-or-nothing, applied
// == 0); a batch refused by a per-record observer applies exactly the
// observed prefix and reports it. Both must be deterministic, and the
// directory must stay prefix-consistent through every injected fault.
// ---------------------------------------------------------------------------

std::vector<WeightedRecord> ToBatch(const std::vector<Record>& workload,
                                    size_t begin, size_t end) {
  std::vector<WeightedRecord> batch;
  for (size_t i = begin; i < end; ++i) {
    batch.push_back(WeightedRecord{workload[i].e, workload[i].t, 1});
  }
  return batch;
}

// A WAL fault mid-batch aborts the whole batch (nothing was logged, so
// nothing may be ingested) and leaves the engine resubmittable: the
// identical resubmit succeeds and the full history recovers.
TEST_F(FaultMatrixTest, BatchAbortOnWalFaultIsAllOrNothing) {
  const auto workload = Workload(24, 37);
  FaultInjectionEnv faulty(base_);
  auto durable = DurableBurstEngine1::Open(&faulty, dir_, SmallOptions());
  ASSERT_TRUE(durable.ok());
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(durable.value()->Append(workload[i].e, workload[i].t).ok());
  }
  const auto batch = ToBatch(workload, 8, workload.size());

  faulty.FailNthWrite(1);
  size_t applied = 123;
  const Status st = durable.value()->AppendBatch(batch, &applied);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(applied, 0u) << "batch tee failure must apply nothing";
  EXPECT_EQ(durable.value()->engine().TotalCount(), 8u);

  // Deterministic resubmit: the same span lands whole.
  applied = 0;
  ASSERT_TRUE(durable.value()->AppendBatch(batch, &applied).ok());
  EXPECT_EQ(applied, batch.size());
  ASSERT_TRUE(durable.value()->Sync().ok());

  auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectPrefixConsistent(std::move(recovered).value(), workload,
                         workload.size());
  EXPECT_EQ(durable.value()->engine().TotalCount(), workload.size());
}

// ENOSPC and torn writes against a batched workload: the batch WAL
// frame write is one buffer of many record frames, so a tear can land
// mid-frame or between frames. Either way recovery must fall back to a
// clean RECORD prefix — possibly mid-batch — never a torn one.
TEST_F(FaultMatrixTest, BatchedWorkloadSurvivesEnospcAndTornWrites) {
  constexpr size_t kBatch = 10;
  const auto workload = Workload(60, 38);
  const auto run = [&](Env* env) {
    auto durable = DurableBurstEngine1::Open(env, dir_, SmallOptions());
    if (!durable.ok()) return size_t{0};
    size_t acked = 0;
    for (size_t begin = 0; begin < workload.size(); begin += kBatch) {
      if (begin == workload.size() / 2) {
        if (!durable.value()->Checkpoint().ok()) return acked;
      }
      const auto batch = ToBatch(
          workload, begin, std::min(begin + kBatch, workload.size()));
      size_t applied = 0;
      if (!durable.value()->AppendBatch(batch, &applied).ok()) {
        EXPECT_EQ(applied, 0u);  // all-or-nothing, every time
        return acked;
      }
      acked += applied;
    }
    (void)durable.value()->Sync();
    return acked;
  };

  FaultInjectionEnv counter(base_);
  run(&counter);
  const uint64_t total_writes = counter.writes_issued();
  ASSERT_GT(total_writes, 4u);
  Clean();

  // tear=0 is pure ENOSPC; 13 tears inside the first frame; 100 keeps
  // whole frames plus a ragged tail of the batch buffer.
  for (uint64_t n = 1; n <= total_writes; ++n) {
    for (uint64_t tear : {uint64_t{0}, uint64_t{13}, uint64_t{100}}) {
      SCOPED_TRACE("fail write " + std::to_string(n) + " tear " +
                   std::to_string(tear));
      FaultInjectionEnv faulty(base_);
      faulty.FailNthWrite(n, tear);
      run(&faulty);
      auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
      if (recovered.ok()) {
        ExpectPrefixConsistent(std::move(recovered).value(), workload,
                               workload.size());
      } else {
        EXPECT_FALSE(recovered.status().message().empty());
      }
      Clean();
    }
  }
}

// Engine-level tee contract, no WAL involved: a failing tee means
// nothing was logged, so nothing may be ingested or buffered — with
// or without a lateness window.
TEST(BatchAbortTest, BatchObserverRefusalAppliesNothing) {
  const auto workload = Workload(12, 40);
  const auto batch = ToBatch(workload, 0, workload.size());
  for (Timestamp lateness : {Timestamp{0}, Timestamp{5}}) {
    SCOPED_TRACE("lateness " + std::to_string(lateness));
    BurstEngineOptions<Pbe1> options = SmallOptions();
    options.max_lateness = lateness;
    BurstEngine1 engine(options);
    size_t calls = 0;
    engine.set_batch_append_observer(
        [&calls](std::span<const WeightedRecord>) {
          ++calls;
          return Status::IOError("tee down");
        });
    size_t applied = 99;
    ASSERT_FALSE(engine.AppendBatch(batch, &applied).ok());
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(applied, 0u);
    EXPECT_EQ(engine.TotalCount(), 0u);
    EXPECT_EQ(engine.BufferedCount(), 0u);
    EXPECT_EQ(Ser(engine), Ser(BurstEngine1(options)));
  }
}

// A failed DIRECTORY fsync after segment creation means the segment's
// very existence is unconfirmed: the writer must poison itself
// (fail-stop) rather than keep acknowledging appends into a file a
// power cut could erase. Here the first dir-sync is the initial
// segment's, so Open itself must refuse.
TEST_F(FaultMatrixTest, DirSyncFailureOnSegmentCreationFailsOpen) {
  FaultInjectionEnv faulty(base_);
  faulty.FailNthDirSync(1);
  auto durable = DurableBurstEngine1::Open(&faulty, dir_, SmallOptions());
  ASSERT_FALSE(durable.ok());

  // Nothing was acknowledged, so the directory recovers empty — and a
  // healed env opens it normally.
  auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().TotalCount(), 0u);
  faulty.Disarm();
  auto reopened = DurableBurstEngine1::Open(&faulty, dir_, SmallOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->Append(1, 1).ok());
}

// A dir-sync failure during Checkpoint (either the rotated segment's
// or the published snapshot's) fails the checkpoint cleanly; every
// already-acknowledged record still recovers.
TEST_F(FaultMatrixTest, DirSyncFailureDuringCheckpointKeepsAckedRecords) {
  const auto workload = Workload(40, 77);
  // Arming resets the counter, so within the checkpoint: #1 is the
  // rotated segment's dir-sync, #2 the published snapshot's. Fail
  // each in turn.
  for (uint64_t n = 1; n <= 2; ++n) {
    SCOPED_TRACE("fail dir-sync " + std::to_string(n));
    FaultInjectionEnv faulty(base_);
    auto durable = DurableBurstEngine1::Open(&faulty, dir_, SmallOptions());
    ASSERT_TRUE(durable.ok());
    for (const auto& r : workload) {
      ASSERT_TRUE(durable.value()->Append(r.e, r.t).ok());
    }
    faulty.FailNthDirSync(n);
    EXPECT_FALSE(durable.value()->Checkpoint().ok());
    EXPECT_EQ(durable.value()->generation(), 0u)
        << "failed checkpoint must not advance the generation";
    durable.value().reset();

    auto recovered = RecoverBurstEngine<Pbe1>(base_, dir_, SmallOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectPrefixConsistent(std::move(recovered).value(), workload,
                           workload.size());
    EXPECT_EQ(faulty.dir_syncs_issued() >= n, true);
    Clean();
  }
}

}  // namespace
}  // namespace bursthist
