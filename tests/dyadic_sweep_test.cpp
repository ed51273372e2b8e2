// Parameterized dyadic-index sweep: universe sizes (powers of two,
// primes, 1) x pruning rules, with injected bursts at the universe's
// edges and middle.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/dyadic_index.h"
#include "core/exact_store.h"
#include "util/random.h"

namespace bursthist {
namespace {

struct SweepParam {
  EventId universe;
  DyadicPruneRule rule;
};

EventStream BurstAtEdges(EventId k, const std::vector<EventId>& bursty,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<SingleEventStream> per_event(k);
  for (EventId e = 0; e < k; ++e) {
    std::vector<Timestamp> times;
    Timestamp t = static_cast<Timestamp>(rng.NextBelow(5));
    while (t < 1000) {
      times.push_back(t);
      t += 25 + static_cast<Timestamp>(rng.NextBelow(10));
    }
    if (std::find(bursty.begin(), bursty.end(), e) != bursty.end()) {
      for (Timestamp bt = 500; bt < 550; ++bt) {
        times.push_back(bt);
        times.push_back(bt);
      }
    }
    std::sort(times.begin(), times.end());
    per_event[e] = SingleEventStream(std::move(times));
  }
  return MergeStreams(per_event);
}

class DyadicSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static CmPbeOptions Grid() {
    CmPbeOptions g;
    g.depth = 4;
    g.width = 256;
    return g;
  }
  static Pbe1Options Cell() {
    Pbe1Options c;
    c.buffer_points = 64;
    c.budget_points = 64;
    return c;
  }
};

TEST_P(DyadicSweep, FindsEdgeAndMiddleBursts) {
  const auto p = GetParam();
  std::vector<EventId> bursty = {0};
  if (p.universe > 1) bursty.push_back(p.universe - 1);
  if (p.universe > 4) bursty.push_back(p.universe / 2);
  std::sort(bursty.begin(), bursty.end());
  bursty.erase(std::unique(bursty.begin(), bursty.end()), bursty.end());

  auto stream = BurstAtEdges(p.universe, bursty, 0xd0 + p.universe);
  DyadicBurstIndex<Pbe1> index(p.universe, Grid(), Cell());
  index.set_prune_rule(p.rule);
  ExactBurstStore exact(p.universe);
  ASSERT_TRUE(exact.AppendStream(stream).ok());
  for (const auto& r : stream.records()) index.Append(r.id, r.time);
  index.Finalize();

  const Timestamp t = 549, tau = 50;
  const double theta = 50.0;
  auto truth = exact.BurstyEvents(t, theta, tau);
  ASSERT_EQ(truth, bursty);  // sanity on the injected ground truth
  auto got = index.BurstyEvents(t, theta, tau);
  EXPECT_EQ(got, bursty);

  // Top-k agrees on the leaders (k = number of injected bursts).
  auto top = index.TopKBurstyEvents(t, bursty.size(), tau);
  std::vector<EventId> top_ids;
  for (const auto& [e, b] : top) top_ids.push_back(e);
  std::sort(top_ids.begin(), top_ids.end());
  EXPECT_EQ(top_ids, bursty);
}

TEST_P(DyadicSweep, QuietInstantFindsNothing) {
  const auto p = GetParam();
  auto stream = BurstAtEdges(p.universe, {0}, 0xd1 + p.universe);
  DyadicBurstIndex<Pbe1> index(p.universe, Grid(), Cell());
  index.set_prune_rule(p.rule);
  for (const auto& r : stream.records()) index.Append(r.id, r.time);
  index.Finalize();
  EXPECT_TRUE(index.BurstyEvents(300, 50.0, 50).empty());
}

std::vector<SweepParam> Params() {
  std::vector<SweepParam> out;
  for (EventId k : {1u, 2u, 3u, 7u, 16u, 31u, 100u, 257u, 1024u}) {
    out.push_back({k, DyadicPruneRule::kPaper});
    out.push_back({k, DyadicPruneRule::kChildren});
  }
  return out;
}

std::string Name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = "K";
  name += std::to_string(info.param.universe);
  name += info.param.rule == DyadicPruneRule::kPaper ? "_paper" : "_children";
  return name;
}

INSTANTIATE_TEST_SUITE_P(Universes, DyadicSweep, ::testing::ValuesIn(Params()),
                         Name);

}  // namespace
}  // namespace bursthist
