// Tests for the TOP-K bursty-event query and the frequency-filtered
// BURSTY EVENT query (engine extensions of the paper's query set).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/burst_engine.h"
#include "core/exact_store.h"
#include "core/read_snapshot.h"
#include "shard/cluster_engine.h"
#include "shard/shard_router.h"
#include "util/random.h"

namespace bursthist {
namespace {

// Stream where events {2, 9, 20, 33} burst at t=500 with strengths
// 4x, 3x, 2x, 1x; everything else trickles.
EventStream GradedBurstStream(EventId k, Rng* rng) {
  std::vector<SingleEventStream> per_event(k);
  const std::vector<std::pair<EventId, int>> bursts = {
      {2, 8}, {9, 6}, {20, 4}, {33, 2}};
  for (EventId e = 0; e < k; ++e) {
    std::vector<Timestamp> times;
    Timestamp t = static_cast<Timestamp>(rng->NextBelow(7));
    while (t < 1200) {
      times.push_back(t);
      t += 25 + static_cast<Timestamp>(rng->NextBelow(10));
    }
    for (const auto& [be, reps] : bursts) {
      if (be != e) continue;
      for (Timestamp bt = 500; bt < 550; ++bt) {
        for (int rep = 0; rep < reps; ++rep) times.push_back(bt);
      }
    }
    std::sort(times.begin(), times.end());
    per_event[e] = SingleEventStream(std::move(times));
  }
  return MergeStreams(per_event);
}

BurstEngineOptions<Pbe1> Options(EventId k) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = k;
  o.grid.depth = 4;
  o.grid.width = 256;
  o.cell.buffer_points = 128;
  o.cell.budget_points = 128;  // lossless cells for crisp ranking
  o.heavy_hitter_capacity = 16;
  return o;
}

class TopKTest : public ::testing::Test {
 protected:
  static constexpr EventId kUniverse = 48;

  void SetUp() override {
    Rng rng(2024);
    stream_ = GradedBurstStream(kUniverse, &rng);
    engine_ = std::make_unique<BurstEngine1>(Options(kUniverse));
    exact_ = std::make_unique<ExactBurstStore>(kUniverse);
    ASSERT_TRUE(engine_->AppendStream(stream_).ok());
    ASSERT_TRUE(exact_->AppendStream(stream_).ok());
    engine_->Finalize();
  }

  EventStream stream_;
  std::unique_ptr<BurstEngine1> engine_;
  std::unique_ptr<ExactBurstStore> exact_;
};

TEST_F(TopKTest, RankingMatchesInjectedStrengths) {
  auto top = engine_->TopKBurstyEvents(549, 4, 50);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].first, 2u);
  EXPECT_EQ(top[1].first, 9u);
  EXPECT_EQ(top[2].first, 20u);
  EXPECT_EQ(top[3].first, 33u);
  // Scores descend.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

TEST_F(TopKTest, MatchesExactTopK) {
  // Exact top-4 by burstiness.
  std::vector<std::pair<EventId, Burstiness>> all;
  for (EventId e = 0; e < kUniverse; ++e) {
    all.emplace_back(e, exact_->BurstinessAt(e, 549, 50));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  auto top = engine_->TopKBurstyEvents(549, 4, 50);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(top[i].first, all[i].first) << "rank " << i;
  }
}

TEST_F(TopKTest, UsesFewerPointQueriesThanScan) {
  (void)engine_->TopKBurstyEvents(549, 3, 50);
  EXPECT_LT(engine_->index().LastQueryPointQueries(),
            static_cast<size_t>(kUniverse));
}

TEST_F(TopKTest, KLargerThanUniverse) {
  auto top = engine_->TopKBurstyEvents(549, 1000, 50);
  EXPECT_LE(top.size(), static_cast<size_t>(kUniverse));
  EXPECT_GE(top.size(), 4u);
}

TEST_F(TopKTest, FrequencyFilterDropsRareBursts) {
  // Event 33 bursts (2/s for 50 s = 100 mentions) on a sparse
  // baseline; with a frequency threshold above its total it must
  // disappear while the heavy bursts stay.
  const double theta = 40.0;
  auto unfiltered = engine_->BurstyEventQuery(549, theta, 50);
  ASSERT_TRUE(std::find(unfiltered.begin(), unfiltered.end(), 33u) !=
              unfiltered.end());
  const double f33 = engine_->CumulativeQuery(33, 549);
  auto filtered =
      engine_->FrequentBurstyEventQuery(549, theta, 50, f33 + 50.0);
  EXPECT_TRUE(std::find(filtered.begin(), filtered.end(), 33u) ==
              filtered.end());
  EXPECT_TRUE(std::find(filtered.begin(), filtered.end(), 2u) !=
              filtered.end());
}

TEST_F(TopKTest, HeavyHittersTrackTheBursters) {
  auto hitters = engine_->HeavyHitters(4);
  ASSERT_EQ(hitters.size(), 4u);
  // The four bursting events dominate the volume.
  std::vector<EventId> keys;
  for (const auto& e : hitters) keys.push_back(static_cast<EventId>(e.key));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<EventId>{2, 9, 20, 33}));
}

TEST_F(TopKTest, HeavyHittersSurviveSerialization) {
  BinaryWriter w;
  engine_->Serialize(&w);
  BurstEngine1 back(Options(kUniverse));
  BinaryReader r(w.bytes());
  ASSERT_TRUE(back.Deserialize(&r).ok());
  auto a = engine_->HeavyHitters(4);
  auto b = back.HeavyHitters(4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

// Regression: the best-first cutoff used to compare frontier scores
// against the SQUARE of the k-th leaf's burstiness. With an
// all-decelerating universe the k-th value is negative, its square is
// large and positive, and the search stopped immediately — returning
// the MOST negative events (largest |b|, explored first) instead of
// the least negative ones.
TEST(TopKNegativeBurstinessTest, RanksDeceleratingEventsCorrectly) {
  const EventId k = 8;
  CmPbeOptions grid;
  grid.depth = 1;
  grid.width = 16;  // >= universe: every level is identity-hashed/exact
  Pbe1Options cell;
  cell.buffer_points = 128;
  cell.budget_points = 128;  // lossless
  DyadicBurstIndex<Pbe1> index(k, grid, cell);
  // Event e occurs (e + 1) times at t = 150 and never again: at t = 300
  // with tau = 100, b_e = (e + 1) - 2 * (e + 1) + 0 = -(e + 1).
  for (EventId e = 0; e < k; ++e) {
    index.Append(e, 150, e + 1);
  }
  index.Finalize();

  auto top = index.TopKBurstyEvents(300, 3, 100);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 0u);
  EXPECT_EQ(top[1].first, 1u);
  EXPECT_EQ(top[2].first, 2u);
  EXPECT_DOUBLE_EQ(top[0].second, -1.0);
  EXPECT_DOUBLE_EQ(top[1].second, -2.0);
  EXPECT_DOUBLE_EQ(top[2].second, -3.0);
}

TEST(TopKNegativeBurstinessTest, MixedSignsKeepPositiveFirst) {
  const EventId k = 8;
  CmPbeOptions grid;
  grid.depth = 1;
  grid.width = 16;
  Pbe1Options cell;
  cell.buffer_points = 128;
  cell.budget_points = 128;
  DyadicBurstIndex<Pbe1> index(k, grid, cell);
  for (EventId e = 0; e < 7; ++e) {
    index.Append(e, 150, e + 1);  // decelerating by t = 300
  }
  index.Append(7, 250, 5);  // accelerating at t = 300: b = +5
  index.Finalize();

  auto top = index.TopKBurstyEvents(300, 2, 100);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 7u);
  EXPECT_DOUBLE_EQ(top[0].second, 5.0);
  EXPECT_EQ(top[1].first, 0u);
  EXPECT_DOUBLE_EQ(top[1].second, -1.0);
}

TEST(TopKEdgeTest, EmptyEngine) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 8;
  BurstEngine1 engine(o);
  engine.Finalize();
  auto top = engine.TopKBurstyEvents(100, 3, 10);
  EXPECT_LE(top.size(), 3u);
  for (const auto& [e, b] : top) {
    EXPECT_LT(e, 8u);
    EXPECT_EQ(b, 0.0);
  }
  EXPECT_TRUE(engine.HeavyHitters().empty());
}

// Tied values come back in ascending id order, whatever order the
// best-first search meets them in — the order ClusterSnapshot::TopK
// merges shards in. Here the search reaches [8, 16), which holds three
// of the four tied ids, before 3's subtree.
TEST(TopKTieTest, TiedIdsComeBackAscending) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 16;
  o.grid.width = 16;  // every dyadic level direct-mapped: exact ties
  BurstEngine1 engine(o);
  for (Timestamp t = 370; t < 400; ++t) {
    for (EventId e : {14, 3, 12, 9}) ASSERT_TRUE(engine.Append(e, t).ok());
  }
  engine.Finalize();
  const auto top = engine.TopKBurstyEvents(390, 4, 20);
  std::vector<EventId> ids;
  for (const auto& [e, b] : top) {
    ids.push_back(e);
    EXPECT_EQ(b, top.front().second) << "event " << e;
  }
  EXPECT_EQ(ids, (std::vector<EventId>{3, 9, 12, 14}));
  EXPECT_GT(top.front().second, 0.0);
}

std::vector<EventId> Ids(const std::vector<std::pair<EventId, double>>& top) {
  std::vector<EventId> ids;
  for (const auto& [e, b] : top) ids.push_back(e);
  return ids;
}

// A cut through tied values keeps the smallest ids: the search expands
// every frontier node scoring exactly the k-th leaf's squared value,
// since such a node can hold a tied leaf with a smaller id. Ids 0-2
// trickle first, then 3, 9, 12 and 14 burst with one shared history.
// Holds on one engine and on a 2-shard view, whose merge is only as
// good as each shard's own cut.
TEST(TopKTieTest, CutThroughTiesKeepsTheSmallestIds) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = 16;
  o.grid.width = 16;  // every dyadic level direct-mapped: exact ties
  const shard::ShardRouter router(2);
  BurstEngine1 engine(o);
  BurstEngine1 shard0(o);
  BurstEngine1 shard1(o);
  auto append = [&](EventId e, Timestamp t) {
    ASSERT_TRUE(engine.Append(e, t).ok());
    ASSERT_TRUE((router.ShardOf(e) == 0 ? shard0 : shard1).Append(e, t).ok());
  };
  for (Timestamp t = 0; t < 370; ++t) append(static_cast<EventId>(t % 3), t);
  for (Timestamp t = 370; t < 400; ++t) {
    for (EventId e : {14, 3, 12, 9}) append(e, t);
  }
  const shard::ClusterSnapshot<Pbe1> cluster(
      router, {shard0.AcquireSnapshot(0), shard1.AcquireSnapshot(0)}, 0);
  engine.Finalize();

  const std::vector<std::vector<EventId>> want = {{3}, {3, 9}, {3, 9, 12}};
  for (size_t k = 1; k <= want.size(); ++k) {
    const auto top = engine.TopKBurstyEvents(390, k, 20);
    EXPECT_EQ(Ids(top), want[k - 1]) << "engine, k=" << k;
    EXPECT_EQ(cluster.TopK(390, k, 20).value, top) << "2 shards, k=" << k;
  }
}

}  // namespace
}  // namespace bursthist
