// Unit tests for the BurstEngine façade.

#include <gtest/gtest.h>

#include <string>

#include "core/burst_engine.h"
#include "core/read_snapshot.h"
#include "eval/metrics.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stream/text_pipeline.h"
#include "test_util.h"
#include "util/random.h"

namespace bursthist {
namespace {

BurstEngineOptions<Pbe1> SmallOptions(EventId k) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = k;
  o.grid.depth = 4;
  o.grid.width = 128;
  o.cell.buffer_points = 128;
  o.cell.budget_points = 64;
  return o;
}

TEST(BurstEngineTest, ValidatesAppends) {
  BurstEngine1 engine(SmallOptions(8));
  EXPECT_TRUE(engine.Append(0, 10).ok());
  EXPECT_EQ(engine.Append(8, 11).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Append(1, 5).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.Append(1, 10).ok());  // equal time is fine
  engine.Finalize();
  EXPECT_EQ(engine.Append(1, 20).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.TotalCount(), 2u);
}

// AppendStream stops at the first invalid record, having applied
// everything before it. Record 5,000 lies in the stream's second
// 4,096-record chunk, so the applied prefix is one whole chunk plus
// part of the next.
TEST(BurstEngineTest, AppendStreamAppliesPrefixBeforeFirstInvalidRecord) {
  const EventId k = 8;
  for (Timestamp lateness : {Timestamp{0}, Timestamp{5}}) {
    SCOPED_TRACE("max_lateness=" + std::to_string(lateness));
    auto options = SmallOptions(k);
    options.max_lateness = lateness;
    BurstEngine1 engine(options);
    EventStream bad;
    for (size_t i = 0; i < 6000; ++i) {
      bad.Append(i == 5000 ? k : static_cast<EventId>(i % k),
                 static_cast<Timestamp>(i / 3));
    }
    EXPECT_EQ(engine.AppendStream(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.TotalCount() + engine.BufferedCount(), 5000u);
    // The engine stays appendable: a following valid stream applies.
    EventStream good;
    good.Append(1, 2000);
    good.Append(2, 2001);
    EXPECT_TRUE(engine.AppendStream(good).ok());
    EXPECT_EQ(engine.TotalCount() + engine.BufferedCount(), 5002u);
  }
}

TEST(BurstEngineTest, ThreeQueryTypesEndToEnd) {
  const EventId k = 16;
  BurstEngine1 engine(SmallOptions(k));
  // Event 3 bursts at t in [500, 550); everything else trickles.
  Rng rng(5);
  EventStream stream;
  Timestamp t = 0;
  while (t < 1000) {
    stream.Append(static_cast<EventId>(rng.NextBelow(k)), t);
    t += 5 + static_cast<Timestamp>(rng.NextBelow(10));
  }
  std::vector<SingleEventStream> split = {};
  // Merge in the burst.
  EventStream merged;
  size_t si = 0;
  for (Timestamp bt = 0; bt < 1000; ++bt) {
    while (si < stream.size() && stream.records()[si].time <= bt) {
      merged.Append(stream.records()[si].id, stream.records()[si].time);
      ++si;
    }
    if (bt >= 500 && bt < 550) {
      merged.Append(3, bt);
      merged.Append(3, bt);
    }
  }
  ASSERT_TRUE(engine.AppendStream(merged).ok());
  engine.Finalize();

  const Timestamp tau = 50;
  // POINT: event 3 accelerates hard at t=549.
  EXPECT_GT(engine.PointQuery(3, 549, tau), 50.0);
  EXPECT_LT(engine.PointQuery(5, 549, tau), 20.0);

  // BURSTY TIME: the burst window is reported for event 3.
  auto when = engine.BurstyTimeQuery(3, 50.0, tau);
  ASSERT_FALSE(when.empty());
  EXPECT_TRUE(Covers(when, 549));
  EXPECT_FALSE(Covers(when, 300));

  // BURSTY EVENT: only event 3 at the burst peak.
  auto what = engine.BurstyEventQuery(549, 50.0, tau);
  EXPECT_EQ(what, (std::vector<EventId>{3}));
  EXPECT_GT(engine.LastQueryPointQueries(), 0u);
  (void)split;
}

TEST(BurstEngineTest, CumulativeQueryTracksTruth) {
  BurstEngine1 engine(SmallOptions(4));
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(engine.Append(2, t).ok());
  }
  engine.Finalize();
  EXPECT_NEAR(engine.CumulativeQuery(2, 99), 100.0, 1.0);
  EXPECT_NEAR(engine.CumulativeQuery(2, 49), 50.0, 1.0);
  EXPECT_EQ(engine.CumulativeQuery(1, 99), 0.0);
}

TEST(BurstEngineTest, FrequencyQueryRanges) {
  auto options = SmallOptions(4);
  options.cell.buffer_points = 256;
  options.cell.budget_points = 256;  // lossless: ranges are exact
  BurstEngine1 engine(options);
  // One arrival at each even timestamp in [0, 200).
  for (Timestamp t = 0; t < 200; t += 2) {
    ASSERT_TRUE(engine.Append(1, t).ok());
  }
  engine.Finalize();
  EXPECT_NEAR(engine.FrequencyQuery(1, 0, 199), 100.0, 1e-9);
  EXPECT_NEAR(engine.FrequencyQuery(1, 100, 199), 50.0, 1e-9);
  EXPECT_NEAR(engine.FrequencyQuery(1, 10, 10), 1.0, 1e-9);
  EXPECT_NEAR(engine.FrequencyQuery(1, 11, 11), 0.0, 1e-9);
  EXPECT_EQ(engine.FrequencyQuery(1, 50, 40), 0.0);  // inverted range
  EXPECT_EQ(engine.FrequencyQuery(3, 0, 199), 0.0);  // absent event
  // Consistency with the underlying burst frequency: bf(t) with span
  // tau equals f(t - tau + 1, t).
  EXPECT_NEAR(engine.FrequencyQuery(1, 101, 150),
              engine.CumulativeQuery(1, 150) - engine.CumulativeQuery(1, 100),
              1e-9);
}

TEST(BurstEngineTest, Pbe2VariantWorks) {
  BurstEngineOptions<Pbe2> o;
  o.universe_size = 8;
  o.grid.depth = 3;
  o.grid.width = 32;
  o.cell.gamma = 2.0;
  BurstEngine2 engine(o);
  for (Timestamp t = 0; t < 200; t += 2) {
    ASSERT_TRUE(engine.Append(1, t).ok());
  }
  engine.Finalize();
  EXPECT_NEAR(engine.CumulativeQuery(1, 199), 100.0, o.cell.gamma + 1e-6);
  auto when = engine.BurstyTimeQuery(1, 1000.0, 20);
  EXPECT_TRUE(when.empty());  // steady stream: no bursts
}

TEST(BurstEngineTest, SerializationRoundTrip) {
  const EventId k = 32;
  BurstEngine1 a(SmallOptions(k));
  Rng rng(9);
  Timestamp t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    ASSERT_TRUE(a.Append(static_cast<EventId>(rng.NextBelow(k)), t).ok());
  }
  a.Finalize();

  BinaryWriter w;
  a.Serialize(&w);
  BurstEngine1 b(SmallOptions(k));
  BinaryReader r(w.bytes());
  ASSERT_TRUE(b.Deserialize(&r).ok());
  EXPECT_EQ(b.TotalCount(), a.TotalCount());
  EXPECT_TRUE(b.finalized());
  for (EventId e = 0; e < k; ++e) {
    for (Timestamp q = 0; q <= t; q += 97) {
      EXPECT_DOUBLE_EQ(b.PointQuery(e, q, 50), a.PointQuery(e, q, 50));
    }
  }
}

TEST(BurstEngineTest, ReorderBufferSurvivesSerialization) {
  // Regression: v1 serialized neither the re-order buffer nor the
  // watermark, so snapshotting an unfinalized engine with
  // max_lateness > 0 silently dropped every pending record.
  const EventId k = 16;
  auto options = SmallOptions(k);
  options.max_lateness = 50;
  BurstEngine1 a(options);
  Rng rng(21);
  Timestamp t = 100;
  for (int i = 0; i < 2000; ++i) {
    const Timestamp late = t - static_cast<Timestamp>(rng.NextBelow(40));
    ASSERT_TRUE(a.Append(static_cast<EventId>(rng.NextBelow(k)), late).ok());
    t += static_cast<Timestamp>(rng.NextBelow(3));
  }
  // Records within the lateness window of the watermark are still
  // buffered, not ingested.
  ASSERT_LT(a.TotalCount(), 2000u);

  BinaryWriter w;
  a.Serialize(&w);
  BurstEngine1 b(options);
  BinaryReader r(w.bytes());
  ASSERT_TRUE(b.Deserialize(&r).ok());
  EXPECT_FALSE(b.finalized());
  // Lossless: re-serializing the restored engine reproduces the blob
  // (pending records and watermark included).
  BinaryWriter w2;
  b.Serialize(&w2);
  EXPECT_EQ(w2.bytes(), w.bytes());

  // Both copies accept the same continuation and end up identical.
  for (int i = 0; i < 500; ++i) {
    const Timestamp late = t - static_cast<Timestamp>(rng.NextBelow(40));
    const EventId e = static_cast<EventId>(rng.NextBelow(k));
    ASSERT_TRUE(a.Append(e, late).ok());
    ASSERT_TRUE(b.Append(e, late).ok());
    t += static_cast<Timestamp>(rng.NextBelow(3));
  }
  a.Finalize();
  b.Finalize();
  EXPECT_EQ(b.TotalCount(), a.TotalCount());
  for (EventId e = 0; e < k; ++e) {
    for (Timestamp q = 0; q <= t; q += 83) {
      EXPECT_DOUBLE_EQ(b.PointQuery(e, q, 50), a.PointQuery(e, q, 50));
    }
  }
}

TEST(BurstEngineTest, RejectsImplausiblePendingCount) {
  auto options = SmallOptions(8);
  options.max_lateness = 10;
  BurstEngine1 a(options);
  ASSERT_TRUE(a.Append(1, 100).ok());
  BinaryWriter w;
  a.Serialize(&w);
  auto bytes = w.bytes();
  // The u64 pending count sits at payload offset 26: total_count(8) +
  // last_time(8) + started(1) + finalized(1) + watermark(8). Re-sealing
  // the frame's CRC lets the patched count reach its own bound.
  test::PatchFramedField<uint64_t>(&bytes, 26, ~uint64_t{0});
  BurstEngine1 b(options);
  BinaryReader r(bytes);
  const Status st = b.Deserialize(&r);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("pending count"), std::string::npos)
      << st.ToString();
}

TEST(BurstEngineTest, DeserializeRejectsShapeMismatch) {
  BurstEngine1 a(SmallOptions(32));
  a.Finalize();
  BinaryWriter w;
  a.Serialize(&w);
  BurstEngine1 b(SmallOptions(64));  // different universe
  BinaryReader r(w.bytes());
  EXPECT_FALSE(b.Deserialize(&r).ok());
}

TEST(BurstEngineTest, TextPipelineToEngine) {
  // End-to-end from raw messages to a burst query.
  EventIdMapper mapper(64);
  ASSERT_TRUE(mapper.BindKeyword("#earthquake", 7).ok());
  std::vector<Message> messages;
  for (Timestamp t = 0; t < 300; t += 30) {
    messages.push_back({"quiet morning #coffee", t});
  }
  for (Timestamp t = 300; t < 330; ++t) {
    messages.push_back({"#earthquake just hit!", t});
    messages.push_back({"did you feel the #earthquake ?", t});
  }
  EventStream stream = ProcessMessages(mapper, messages);

  BurstEngine1 engine(SmallOptions(64));
  ASSERT_TRUE(engine.AppendStream(stream).ok());
  engine.Finalize();
  EXPECT_GT(engine.PointQuery(7, 329, 30), 30.0);
  auto what = engine.BurstyEventQuery(329, 30.0, 30);
  EXPECT_EQ(what, (std::vector<EventId>{7}));
}

// The fixed bug: a live engine with a lateness window holds recent
// records in the re-order buffer, and queries used to silently omit
// them. Every query type on a live engine must now match a finalized
// twin fed the same records — no Finalize() required.
TEST(BurstEngineTest, LiveQueriesCoverBufferedRecords) {
  auto options = SmallOptions(8);
  options.max_lateness = 1000;  // nothing ripens during the test
  BurstEngine1 live(options);
  BurstEngine1 twin(options);
  Rng rng(17);
  Timestamp t = 0;
  for (int i = 0; i < 300; ++i) {
    t += static_cast<Timestamp>(rng.NextBelow(3));
    const EventId e = static_cast<EventId>(rng.NextBelow(8));
    ASSERT_TRUE(live.Append(e, t).ok());
    ASSERT_TRUE(twin.Append(e, t).ok());
  }
  ASSERT_GT(live.BufferedCount(), 0u);
  twin.Finalize();

  for (EventId e = 0; e < 8; ++e) {
    for (Timestamp tau : {1, 8, 32}) {
      EXPECT_EQ(live.PointQuery(e, t, tau), twin.PointQuery(e, t, tau))
          << "e=" << e << " tau=" << tau;
      EXPECT_EQ(live.BurstyTimeQuery(e, 2.0, tau),
                twin.BurstyTimeQuery(e, 2.0, tau));
    }
    EXPECT_EQ(live.CumulativeQuery(e, t), twin.CumulativeQuery(e, t));
    EXPECT_EQ(live.FrequencyQuery(e, t / 4, t / 2),
              twin.FrequencyQuery(e, t / 4, t / 2));
  }
  EXPECT_EQ(live.BurstyEventQuery(t, 2.0, 8), twin.BurstyEventQuery(t, 2.0, 8));
  EXPECT_EQ(live.FrequentBurstyEventQuery(t, 2.0, 8, 3.0),
            twin.FrequentBurstyEventQuery(t, 2.0, 8, 3.0));
  EXPECT_EQ(live.TopKBurstyEvents(t, 3, 8), twin.TopKBurstyEvents(t, 3, 8));
  EXPECT_EQ(live.AcquireSnapshot()->bound().point_bound,
            twin.EffectivePointBound().point_bound);

  // Serving the queries left the live engine live.
  EXPECT_FALSE(live.finalized());
  EXPECT_TRUE(live.Append(0, t).ok());
}

// All three event-centric queries run through the same latency/
// point-query instrumentation, not just BurstyEventQuery.
TEST(BurstEngineTest, EventQueriesShareInstrumentation) {
  BurstEngine1 engine(SmallOptions(8));
  for (Timestamp t = 0; t < 100; ++t) {
    ASSERT_TRUE(engine.Append(static_cast<EventId>(t % 8), t).ok());
  }
  engine.Finalize();
#ifndef BURSTHIST_NO_METRICS
  auto& bursty_lat =
      obs::GetLatencyHistogram(obs::kQueryBurstyEventLatencySeconds);
  auto& frequent_lat =
      obs::GetLatencyHistogram(obs::kQueryFrequentBurstyEventLatencySeconds);
  auto& topk_lat = obs::GetLatencyHistogram(obs::kQueryTopkLatencySeconds);
  const uint64_t bursty_before = bursty_lat.Count();
  const uint64_t frequent_before = frequent_lat.Count();
  const uint64_t topk_before = topk_lat.Count();
  (void)engine.BurstyEventQuery(99, 2.0, 8);
  (void)engine.FrequentBurstyEventQuery(99, 2.0, 8, 1.0);
  (void)engine.TopKBurstyEvents(99, 3, 8);
  EXPECT_EQ(bursty_lat.Count(), bursty_before + 1);
  EXPECT_EQ(frequent_lat.Count(), frequent_before + 1);
  EXPECT_EQ(topk_lat.Count(), topk_before + 1);
  // Each records how many point queries its last evaluation needed.
  EXPECT_GT(obs::GetGauge(obs::kQueryBurstyEventPointQueries).Value(), 0.0);
#else
  (void)engine.FrequentBurstyEventQuery(99, 2.0, 8, 1.0);
  (void)engine.TopKBurstyEvents(99, 3, 8);
#endif
}

}  // namespace
}  // namespace bursthist
