// Byte-identity tier for the batched ingest hot path: every stream
// family from the differential harness, ingested with one Append per
// record and with AppendBatch at a sweep of batch sizes (1, 7, 16, 64,
// 4096, whole-stream), must finalize to byte-identical engine state.
// This holds EXACTLY (not within tolerance): the batch fast path replays
// each grid cell's updates in record order, and the buffered path
// buffers and drains record by record as Append does, so any
// divergence is a bug, not approximation noise.
//
// A batch that hits a refused record aborts with the applied prefix
// reported; identity with the tolerant serial loop (which skips the
// refused record and keeps going) is recovered by resubmitting the
// suffix past the failure — the same loop the ingest server runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "differential/diff_harness.h"
#include "test_util.h"
#include "util/serialize.h"

namespace bursthist {
namespace {

using test::StreamFamily;
using test::StreamSpec;

constexpr StreamFamily kFamilies[] = {
    StreamFamily::kUniform, StreamFamily::kBursty, StreamFamily::kStaircase,
    StreamFamily::kDuplicates, StreamFamily::kOutOfOrder};

using Engine1 = BurstEngine<Pbe1>;

BurstEngineOptions<Pbe1> EngineOptions(const StreamSpec& spec) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = spec.universe;
  o.grid.depth = 2;
  o.grid.width = 7;
  o.cell.buffer_points = 24;
  o.cell.budget_points = 24;
  o.heavy_hitter_capacity = 4;
  o.max_lateness = spec.max_lateness;
  return o;
}

std::vector<uint8_t> Bytes(const Engine1& engine) {
  BinaryWriter w;
  engine.Serialize(&w);
  return w.TakeBytes();
}

// Deterministic weights (not all 1) so the weighted batch lanes —
// the SoA count split and the WeightedRecord overloads — are covered
// by the same identity sweep.
std::vector<WeightedRecord> Weighted(const std::vector<EventRecord>& arrivals) {
  std::vector<WeightedRecord> records;
  records.reserve(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    records.push_back(
        WeightedRecord{arrivals[i].id, arrivals[i].time, 1 + i % 3});
  }
  return records;
}

// The tolerant serial reference: refused records (late arrivals) are
// skipped, everything else must land.
Engine1 BuildSerial(const BurstEngineOptions<Pbe1>& options,
                    const std::vector<WeightedRecord>& records) {
  Engine1 engine(options);
  for (const auto& r : records) (void)engine.Append(r.id, r.time, r.count);
  engine.Finalize();
  return engine;
}

// Chunked AppendBatch with the server's resubmit-suffix loop: a
// failed batch reports how many records applied; skip the refused
// record and resubmit the rest, reproducing the serial skip exactly.
void AppendBatchTolerant(Engine1* engine,
                         std::span<const WeightedRecord> span) {
  while (!span.empty()) {
    size_t applied = 0;
    const Status st = engine->AppendBatch(span, &applied);
    if (st.ok()) break;
    span = span.subspan(applied + 1);
  }
}

Engine1 BuildBatched(const BurstEngineOptions<Pbe1>& options,
                     const std::vector<WeightedRecord>& records,
                     size_t batch_size) {
  Engine1 engine(options);
  const std::span<const WeightedRecord> all(records);
  for (size_t begin = 0; begin < records.size(); begin += batch_size) {
    AppendBatchTolerant(&engine,
                        all.subspan(begin, std::min(batch_size,
                                                    records.size() - begin)));
  }
  engine.Finalize();
  return engine;
}

// Every family, every batch size in the acceptance sweep, weighted
// records, byte-for-byte equality against the per-record build.
TEST(BatchIdentity, BatchSizesMatchSerialBytesAcrossFamilies) {
  for (StreamFamily family : kFamilies) {
    StreamSpec spec;
    spec.family = family;
    spec.universe = 8;
    spec.n = 320;
    spec.seed = test::CaseSeed(7100 + static_cast<uint64_t>(family));
    spec.max_lateness = family == StreamFamily::kOutOfOrder ? 6 : 0;
    SCOPED_TRACE(spec.ToString());

    const auto records = Weighted(test::GenerateArrivals(spec));
    const auto serial_bytes = Bytes(BuildSerial(EngineOptions(spec), records));
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{16}, size_t{64},
                              size_t{4096}, records.size()}) {
      EXPECT_EQ(Bytes(BuildBatched(EngineOptions(spec), records, batch_size)),
                serial_bytes)
          << "batch_size=" << batch_size;
    }
  }
}

// AppendStream is routed through AppendBatch now; pin its identity
// with the per-record build on the sorted stream (every family's
// sorted form is a valid max_lateness=0 stream).
TEST(BatchIdentity, AppendStreamMatchesPerEventAppend) {
  for (StreamFamily family : kFamilies) {
    StreamSpec spec;
    spec.family = family;
    spec.universe = 8;
    spec.n = 320;
    spec.seed = test::CaseSeed(7200 + static_cast<uint64_t>(family));
    spec.max_lateness = family == StreamFamily::kOutOfOrder ? 6 : 0;
    SCOPED_TRACE(spec.ToString());
    const EventStream sorted =
        test::SortedStream(test::GenerateArrivals(spec));

    StreamSpec ordered = spec;
    ordered.max_lateness = 0;
    Engine1 serial(EngineOptions(ordered));
    for (const auto& r : sorted.records()) {
      ASSERT_TRUE(serial.Append(r.id, r.time).ok());
    }
    serial.Finalize();

    Engine1 streamed(EngineOptions(ordered));
    ASSERT_TRUE(streamed.AppendStream(sorted).ok());
    streamed.Finalize();
    EXPECT_EQ(Bytes(streamed), Bytes(serial));
  }
}

}  // namespace
}  // namespace bursthist
