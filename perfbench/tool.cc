// perfbench_tool: the in-process half of the serve-path benchmark.
//
//   perfbench_tool prepare <workload> <seed> <outdir>
//     Generates the workload from the seed, replays it into an
//     in-process reference with serve's options, and writes what run.py
//     needs to drive `bursthist_cli serve` and check its replies:
//     <outdir>/ingest.txt (ADD lines in arrival order) and
//     <outdir>/prepared.json (batching, fresh-read batches, query
//     lines, the reference's exact reply bytes, ExactBurstStore truth
//     for the accuracy metrics, and a calibration-kernel reading).
//
//   perfbench_tool trace <workload> <seed> <outdir>
//     Replays the same arrival order and query set through the public
//     calls of each layer (server, governor, shard, recovery, core,
//     pla), records spans around those calls in memory, writes them to
//     <outdir>/spans.tsv at exit and prints the per-layer metrics as
//     one JSON object on the last stdout line.
//
// Spans live only in this file: the program itself is not changed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/burst_engine.h"
#include "core/exact_store.h"
#include "core/read_snapshot.h"
#include "gen/rate_curve.h"
#include "gen/scenarios.h"
#include "governor/resource_governor.h"
#include "recovery/durable_engine.h"
#include "server/ingest_server.h"
#include "server/wire.h"
#include "shard/cluster_engine.h"
#include "util/env.h"
#include "util/random.h"

namespace {

using namespace bursthist;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Serve's configuration (bursthist_cli's FileHeader defaults, plus the
// --budget-mb the README's serve example uses).

constexpr EventId kUniverse = 864;
constexpr size_t kBudgetMb = 256;
// The lateness the reorder-cost replay uses on workloads served in order.
constexpr Timestamp kProbeLateness = 300;
// TCP recv chunk of the server's connection loop: one HandleLines call.
constexpr size_t kChunkBytes = 8192;

BurstEngineOptions<Pbe1> ServeOptions(Timestamp lateness,
                                      size_t budget_points = 120) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = kUniverse;
  o.grid.depth = 2;
  o.grid.width = 55;
  o.grid.seed = 0;
  o.cell.buffer_points = 1500;
  o.cell.budget_points = budget_points;
  o.max_lateness = lateness;
  return o;
}

ResourceBudget ServeBudget() {
  return ResourceBudget{kBudgetMb << 19, kBudgetMb << 20};
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_tool: %s\n", msg.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Workloads.

enum class QueryKind { kPoint, kBurstyEvent, kTopK, kBurstyTime };

struct Query {
  QueryKind kind = QueryKind::kPoint;
  EventId e = 0;
  Timestamp t = 0;
  Timestamp tau = 0;
  double theta = 0.0;
  size_t k = 0;
  std::string line;
  // Accuracy truth: the exact POINT value, or the exact BEVENT set.
  double exact = 0.0;
  std::vector<EventId> truth;
};

struct Workload {
  std::string name;
  size_t shards = 1;
  Timestamp lateness = 0;
  size_t batch = 0;             // ADD lines per client batch
  size_t window = 4;            // client batches in flight
  size_t checkpoint_batch = 0;  // CHECKPOINT sent after this many batches
  size_t poll_every = 0;        // dashboard: poll after every this many acks;
                                // 0: a fresh-read phase instead
  Timestamp tau = 0;
  std::vector<WeightedRecord> ingest;               // arrival order
  std::vector<std::vector<WeightedRecord>> fresh;   // fresh-read batches
  std::vector<Query> points, scans;                 // warm lists
  std::vector<std::vector<Query>> fresh_sets;       // after each fresh batch
  std::vector<Query> dash_set;                      // dashboard query set
};

std::string QueryLine(const Query& q) {
  char buf[160];
  switch (q.kind) {
    case QueryKind::kPoint:
      std::snprintf(buf, sizeof buf, "POINT %u %lld %lld", q.e,
                    static_cast<long long>(q.t), static_cast<long long>(q.tau));
      break;
    case QueryKind::kBurstyEvent:
      std::snprintf(buf, sizeof buf, "BEVENT %lld %s %lld",
                    static_cast<long long>(q.t),
                    server::FormatDouble(q.theta).c_str(),
                    static_cast<long long>(q.tau));
      break;
    case QueryKind::kTopK:
      std::snprintf(buf, sizeof buf, "TOPK %lld %zu %lld",
                    static_cast<long long>(q.t), q.k,
                    static_cast<long long>(q.tau));
      break;
    case QueryKind::kBurstyTime:
      std::snprintf(buf, sizeof buf, "BTIME %u %s %lld", q.e,
                    server::FormatDouble(q.theta).c_str(),
                    static_cast<long long>(q.tau));
      break;
  }
  return buf;
}

std::string AddLine(const WeightedRecord& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "ADD %u %lld", r.id,
                static_cast<long long>(r.time));
  return buf;
}

// Zipf(1) ids over K = 864 at a constant per-second volume, plus a few
// trapezoid bursts, thousands of records per timestamp, shuffled within
// each timestamp. The stream spans fewer timestamps than a PBE-1 buffer
// holds, so no cell compresses during ingest.
std::vector<WeightedRecord> MakeFirehose(uint64_t seed) {
  constexpr Timestamp kSeconds = 800;
  constexpr double kPerSecond = 3500.0;
  Rng rng(seed ^ 0xf12e405eULL);
  const std::vector<double> w = ZipfWeights(kUniverse, 1.0);
  std::vector<RateCurve> curves(kUniverse);
  for (EventId e = 0; e < kUniverse; ++e) {
    curves[e].AddConstant(0, kSeconds, kPerSecond * w[e]);
  }
  // Enough overlapping bursts that about ten ids burst at once, so the
  // BEVENT sets the accuracy metrics use are made of real bursts. The
  // burst schedule is a fixed scenario, like MakeOlympicRio's soccer and
  // swimming curves; the seed draws the records from it.
  Rng burst_rng(0xb0257ULL);
  for (int b = 0; b < 200; ++b) {
    const EventId e = static_cast<EventId>(burst_rng.NextBelow(kUniverse));
    const Timestamp start =
        static_cast<Timestamp>(burst_rng.NextBelow(kSeconds - 100));
    const Timestamp ramp = 5 + static_cast<Timestamp>(burst_rng.NextBelow(15));
    const Timestamp plateau =
        10 + static_cast<Timestamp>(burst_rng.NextBelow(30));
    const double height = kPerSecond * (0.02 + 0.04 * burst_rng.NextDouble());
    curves[e].AddBurst(start, start + ramp, start + ramp + plateau,
                       start + 2 * ramp + plateau, height);
  }
  Rng sample_rng = rng.Fork(2);
  std::vector<WeightedRecord> out;
  out.reserve(static_cast<size_t>(kSeconds * kPerSecond * 1.1));
  for (Timestamp t = 0; t < kSeconds; ++t) {
    const size_t begin = out.size();
    for (EventId e = 0; e < kUniverse; ++e) {
      const uint64_t n = sample_rng.NextPoisson(curves[e].RateAt(t));
      for (uint64_t i = 0; i < n; ++i) out.push_back({e, t, 1});
    }
    for (size_t i = out.size() - begin; i > 1; --i) {
      std::swap(out[begin + i - 1], out[begin + sample_rng.NextBelow(i)]);
    }
  }
  return out;
}

// MakeOlympicRio at `scale`, in time order, or with each record's
// arrival delayed by a seeded jitter below `jitter` time units.
std::vector<WeightedRecord> MakeOlympic(uint64_t seed, double scale,
                                        Timestamp jitter) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.scale = scale;
  const Dataset ds = MakeOlympicRio(cfg);
  std::vector<WeightedRecord> out;
  out.reserve(ds.stream.size());
  for (const EventRecord& r : ds.stream.records()) {
    out.push_back({r.id, r.time, 1});
  }
  if (jitter > 0) {
    Rng rng(seed ^ 0x0a11a7e5ULL);
    std::vector<std::pair<Timestamp, size_t>> keys(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      keys[i] = {out[i].time + static_cast<Timestamp>(
                                   rng.NextBelow(static_cast<uint64_t>(jitter))),
                 i};
    }
    std::stable_sort(keys.begin(), keys.end());
    std::vector<WeightedRecord> arrived(out.size());
    for (size_t i = 0; i < keys.size(); ++i) arrived[i] = out[keys[i].second];
    out = std::move(arrived);
  }
  return out;
}

// Exact burstiness of every id at (t, tau), sorted descending.
std::vector<std::pair<Burstiness, EventId>> RankAt(const ExactBurstStore& exact,
                                                   Timestamp t, Timestamp tau) {
  std::vector<std::pair<Burstiness, EventId>> ranked;
  ranked.reserve(kUniverse);
  for (EventId e = 0; e < kUniverse; ++e) {
    ranked.push_back({exact.BurstinessAt(e, t, tau), e});
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  return ranked;
}

// Fixed query lists, drawn from the seed and the exact store: POINTs on
// ids sampled by volume, BEVENTs at the burstiest of a sample of times
// with theta putting about ten ids in the exact set, TOPK 10 at the
// same times, and BTIMEs on the busiest ids.
void MakeQueries(Workload* w, const ExactBurstStore& exact,
                 const std::vector<WeightedRecord>& all, uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Timestamp t_max = 0;
  for (const auto& r : all) t_max = std::max(t_max, r.time);
  const Timestamp lo = 2 * w->tau;
  const uint64_t span = static_cast<uint64_t>(std::max<Timestamp>(1, t_max - lo));
  for (int i = 0; i < 2048; ++i) {
    Query q;
    q.kind = QueryKind::kPoint;
    q.e = all[rng.NextBelow(all.size())].id;
    q.t = lo + static_cast<Timestamp>(rng.NextBelow(span + 1));
    q.tau = w->tau;
    q.exact = static_cast<double>(exact.BurstinessAt(q.e, q.t, q.tau));
    w->points.push_back(q);
  }
  // BEVENT times: 256 evenly spaced over the stream (so the sets come
  // from many different bursts), each theta from the exact ranking.
  std::vector<Query> bevents;
  for (int i = 0; i < 256; ++i) {
    const Timestamp t = lo + static_cast<Timestamp>(span * (i + 0.5) / 256);
    const auto ranked = RankAt(exact, t, w->tau);
    Query q;
    q.kind = QueryKind::kBurstyEvent;
    q.t = t;
    q.tau = w->tau;
    q.theta = std::max(
        1.0, ranked[10].first < ranked[9].first
                 ? 0.5 * static_cast<double>(ranked[9].first + ranked[10].first)
                 : static_cast<double>(ranked[9].first));
    bevents.push_back(q);
  }
  for (Query& q : bevents) q.truth = exact.BurstyEvents(q.t, q.theta, q.tau);
  for (const Query& b : bevents) w->scans.push_back(b);
  for (size_t i = 0; i < 16; ++i) {
    Query q;
    q.kind = QueryKind::kTopK;
    q.t = bevents[16 * i].t;
    q.k = 10;
    q.tau = w->tau;
    w->scans.push_back(q);
  }
  // BTIME on the busiest ids, theta half of the id's peak at the
  // sampled BEVENT times.
  std::vector<size_t> volume(kUniverse, 0);
  for (const auto& r : all) ++volume[r.id];
  std::vector<EventId> busiest(kUniverse);
  for (EventId e = 0; e < kUniverse; ++e) busiest[e] = e;
  std::stable_sort(busiest.begin(), busiest.end(),
                   [&](EventId a, EventId b) { return volume[a] > volume[b]; });
  for (size_t i = 0; i < 16; ++i) {
    Query q;
    q.kind = QueryKind::kBurstyTime;
    q.e = busiest[i];
    q.tau = w->tau;
    Burstiness peak = 2;
    for (const Query& b : bevents) {
      peak = std::max(peak, exact.BurstinessAt(q.e, b.t, q.tau));
    }
    q.theta = 0.5 * static_cast<double>(peak);
    w->scans.push_back(q);
  }
  for (Query& q : w->points) q.line = QueryLine(q);
  for (Query& q : w->scans) q.line = QueryLine(q);

  // The dashboard query set at time t: TOPK + BEVENT + three POINTs on
  // the busiest ids.
  double theta = 0.0;
  for (const Query& b : bevents) theta += b.theta;
  theta /= static_cast<double>(bevents.size());
  auto dash = [&](Timestamp t) {
    std::vector<Query> set;
    Query top;
    top.kind = QueryKind::kTopK;
    top.t = t;
    top.k = 10;
    top.tau = w->tau;
    set.push_back(top);
    Query be;
    be.kind = QueryKind::kBurstyEvent;
    be.t = t;
    be.theta = theta;
    be.tau = w->tau;
    set.push_back(be);
    for (size_t i = 0; i < 3; ++i) {
      Query p;
      p.kind = QueryKind::kPoint;
      p.e = busiest[i];
      p.t = t;
      p.tau = w->tau;
      set.push_back(p);
    }
    for (Query& q : set) q.line = QueryLine(q);
    return set;
  };
  w->dash_set = dash(t_max);
  Timestamp newest = 0;
  for (const auto& r : w->ingest) newest = std::max(newest, r.time);
  for (const auto& batch : w->fresh) {
    for (const auto& r : batch) newest = std::max(newest, r.time);
    w->fresh_sets.push_back(dash(newest));
  }
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  std::vector<WeightedRecord> all;
  size_t fresh_batches = 0, fresh_size = 0;
  if (name == "firehose") {
    all = MakeFirehose(seed);
    // Small enough batches that the few acks stalled behind the midway
    // checkpoint stay well under 1 %: p99 then measures the steady tail,
    // not whichever of the two regimes a run lands in.
    w.batch = 1000;
    w.window = 8;
    w.tau = 50;
    fresh_batches = 3;
    fresh_size = 200;
  } else if (name == "olympic_sharded") {
    all = MakeOlympic(seed, 0.02, 300);
    // Two shards, so the shard workers, the ingest thread, the
    // connection thread and the client fit the box's four cores; large
    // batches, so each record pays few cross-thread hand-offs. With four
    // shards and batches of 50, ingest_rps and ack_p99_ms followed the
    // scheduler more than the program.
    w.shards = 2;
    w.lateness = 300;
    w.batch = 200;
    w.tau = kSecondsPerDay;
    // Fresh batches large enough to move the open PBE-1 buffers to a
    // different fill (and so DP cost) at every fresh read.
    fresh_batches = 3;
    fresh_size = 1000;
  } else if (name == "dashboard") {
    all = MakeOlympic(seed, 0.0085, 0);
    w.batch = 40;
    // Eight batches in flight, so twice as many acks wait behind each
    // poll's refresh as with four: p99 then falls among the longest
    // stalls (p98 369 ms, p99 397 ms in one run) instead of on the steep
    // edge below them (p98 222 ms, p99 340 ms with four in flight).
    w.window = 8;
    w.tau = kSecondsPerDay;
    w.poll_every = 100;
  } else {
    Die("unknown workload '" + name + "'");
  }
  const size_t fresh_total = fresh_batches * fresh_size;
  w.ingest.assign(all.begin(), all.end() - static_cast<ptrdiff_t>(fresh_total));
  for (size_t i = 0; i < fresh_batches; ++i) {
    auto first = all.end() - static_cast<ptrdiff_t>(fresh_total - i * fresh_size);
    w.fresh.emplace_back(first, first + static_cast<ptrdiff_t>(fresh_size));
  }
  // run.py pools the acks of its five ingest phases; at least 1000 of
  // them, so p99 has ten samples beyond it.
  const size_t batches = (w.ingest.size() + w.batch - 1) / w.batch;
  if (5 * batches < 1000) Die("fewer than 1000 ingest batches per run");
  w.checkpoint_batch = batches / 2;

  std::vector<WeightedRecord> sorted = all;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  ExactBurstStore exact(kUniverse);
  for (const auto& r : sorted) exact.Append(r.id, r.time);
  MakeQueries(&w, exact, sorted, seed);
  return w;
}

// Client batches of the ingest phase.
std::vector<std::span<const WeightedRecord>> ClientBatches(const Workload& w) {
  std::vector<std::span<const WeightedRecord>> out;
  for (size_t i = 0; i < w.ingest.size(); i += w.batch) {
    out.emplace_back(w.ingest.data() + i, std::min(w.batch, w.ingest.size() - i));
  }
  return out;
}

// The engine batches serve forms from one client batch: the batch's
// ADD lines cut at 8 KiB recv boundaries (a line split by a boundary
// completes in the next chunk).
std::vector<std::span<const WeightedRecord>> ServerChunks(
    std::span<const WeightedRecord> batch) {
  std::vector<std::span<const WeightedRecord>> out;
  size_t begin = 0, bytes = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    bytes += AddLine(batch[i]).size() + 1;
    if (bytes >= kChunkBytes) {
      // The line ending past the boundary closes the next chunk.
      const size_t end = bytes == kChunkBytes ? i + 1 : i;
      if (end > begin) out.push_back(batch.subspan(begin, end - begin));
      begin = end;
      bytes = bytes == kChunkBytes ? 0 : bytes - kChunkBytes;
    }
  }
  if (begin < batch.size()) out.push_back(batch.subspan(begin));
  return out;
}

// ---------------------------------------------------------------------------
// Reference replies.

template <typename SnapT>
std::string Answer(const SnapT& snap, const Query& q) {
  switch (q.kind) {
    case QueryKind::kPoint: {
      auto a = snap.Point(q.e, q.t, q.tau);
      return server::FormatValue(a.value, a.watermark, a.bound);
    }
    case QueryKind::kBurstyEvent: {
      auto a = snap.BurstyEvent(q.t, q.theta, q.tau);
      return server::FormatEvents(a.value, a.watermark, a.bound);
    }
    case QueryKind::kTopK: {
      auto a = snap.TopK(q.t, q.k, q.tau);
      return server::FormatTopK(a.value, a.watermark, a.bound);
    }
    case QueryKind::kBurstyTime: {
      auto a = snap.BurstyTime(q.e, q.theta, q.tau);
      return server::FormatIntervals(a.value, a.watermark, a.bound);
    }
  }
  return "";
}

// Median of five runs of a fixed integer kernel, in ms: a reading of
// how fast the box is right now, recorded beside each run.
double CalibrationMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    uint64_t x = 0x243f6a8885a308d3ULL, acc = 0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x & 0xff;
    }
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 + (acc == 1 ? 1 : 0));
  }
  std::sort(ms.begin(), ms.end());
  return ms[2];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) { return server::FormatDouble(v); }

template <typename T>
std::string JsonIds(const std::vector<T>& ids) {
  std::string out = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out + "]";
}

void RemoveAll(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

int Prepare(const std::string& name, uint64_t seed, const std::string& out) {
  fs::create_directories(out);
  const Workload w = MakeWorkload(name, seed);

  // Reference: serve's engine shape, fed the exact arrival order. A
  // sharded workload replays through ClusterEngine with serial ingest.
  const std::string ref_dir = out + "/reference";
  RemoveAll(ref_dir);
  std::vector<std::string> point_replies, scan_replies, fresh_replies,
      dash_replies;
  Count total = 0;
  auto answer_all = [&](const auto& snap) {
    for (const Query& q : w.points) point_replies.push_back(Answer(snap, q));
    for (const Query& q : w.scans) scan_replies.push_back(Answer(snap, q));
    for (const Query& q : w.fresh_sets.empty() ? w.dash_set : w.fresh_sets.back()) {
      fresh_replies.push_back(Answer(snap, q));
    }
    for (const Query& q : w.dash_set) dash_replies.push_back(Answer(snap, q));
  };
  if (w.shards > 1) {
    shard::ClusterOptions copts;
    copts.shards = w.shards;
    copts.parallel_ingest = false;
    auto c = shard::ClusterEngine<Pbe1>::Open(Env::Default(), ref_dir,
                                              ServeOptions(w.lateness), copts);
    Check(c.status(), "open reference cluster");
    auto& cluster = *c.value();
    for (auto batch : ClientBatches(w)) Check(cluster.AppendBatch(batch), "ref add");
    for (const auto& b : w.fresh) Check(cluster.AppendBatch(b), "ref add");
    total = cluster.TotalCount() + cluster.BufferedCount();
    answer_all(*cluster.AcquireSnapshot());
  } else {
    BurstEngine<Pbe1> engine(ServeOptions(w.lateness));
    for (auto batch : ClientBatches(w)) Check(engine.AppendBatch(batch), "ref add");
    for (const auto& b : w.fresh) Check(engine.AppendBatch(b), "ref add");
    total = engine.TotalCount() + engine.BufferedCount();
    answer_all(*engine.AcquireSnapshot());
  }
  RemoveAll(ref_dir);

  {
    std::ofstream f(out + "/ingest.txt", std::ios::binary);
    std::string buf;
    for (const auto& r : w.ingest) {
      buf += AddLine(r);
      buf += '\n';
    }
    f << buf;
  }
  auto lines = [](const std::vector<Query>& qs) {
    std::string s = "[";
    for (size_t i = 0; i < qs.size(); ++i) {
      s += (i > 0 ? "," : "") + JsonString(qs[i].line);
    }
    return s + "]";
  };
  auto strings = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i > 0 ? "," : "") + JsonString(v[i]);
    return s + "]";
  };
  std::ostringstream js;
  js << "{\"workload\":" << JsonString(w.name) << ",\"seed\":" << seed
     << ",\"universe\":" << kUniverse << ",\"shards\":" << w.shards
     << ",\"lateness\":" << w.lateness << ",\"budget_mb\":" << kBudgetMb
     << ",\"batch\":" << w.batch << ",\"window\":" << w.window
     << ",\"checkpoint_batch\":" << w.checkpoint_batch
     << ",\"poll_every\":" << w.poll_every
     << ",\"ingest_records\":" << w.ingest.size()
     << ",\"reference_total\":" << total;
  // Per client batch: the byte offset where it ends in ingest.txt and
  // its newest timestamp.
  Timestamp newest = 0;
  size_t offset = 0;
  std::string ends = "[", newests = "[";
  for (auto b : ClientBatches(w)) {
    for (const auto& r : b) {
      offset += AddLine(r).size() + 1;
      newest = std::max(newest, r.time);
    }
    ends += (ends.size() > 1 ? "," : "") + std::to_string(offset);
    newests += (newests.size() > 1 ? "," : "") + std::to_string(newest);
  }
  js << ",\"batch_ends\":" << ends << "],\"batch_newest\":" << newests
     << "],\"fresh\":[";
  for (size_t i = 0; i < w.fresh.size(); ++i) {
    std::string add;
    for (const auto& r : w.fresh[i]) {
      add += AddLine(r) + "\n";
      newest = std::max(newest, r.time);
    }
    js << (i > 0 ? "," : "") << "{\"lines\":" << JsonString(add)
       << ",\"newest\":" << newest << ",\"queries\":" << lines(w.fresh_sets[i])
       << "}";
  }
  js << "],\"points\":" << lines(w.points) << ",\"point_replies\":"
     << strings(point_replies) << ",\"point_exact\":[";
  for (size_t i = 0; i < w.points.size(); ++i) {
    js << (i > 0 ? "," : "") << JsonNumber(w.points[i].exact);
  }
  js << "],\"scans\":" << lines(w.scans) << ",\"scan_replies\":"
     << strings(scan_replies) << ",\"scan_truth\":[";
  for (size_t i = 0; i < w.scans.size(); ++i) {
    js << (i > 0 ? "," : "")
       << (w.scans[i].kind == QueryKind::kBurstyEvent ? JsonIds(w.scans[i].truth)
                                                       : std::string("null"));
  }
  js << "],\"last_fresh_replies\":" << strings(fresh_replies)
     << ",\"dash_set\":" << lines(w.dash_set)
     << ",\"dash_replies\":" << strings(dash_replies)
     << ",\"calibration_ms\":" << JsonNumber(CalibrationMs()) << "}\n";
  std::ofstream(out + "/prepared.json") << js.str();
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing: spans (name, start, end, parent) kept in memory.

class Tracer {
 public:
  struct Span {
    const char* name;
    int32_t parent;
    int64_t start;
    int64_t end;
  };
  struct Totals {
    double total_ns = 0.0;  // sum of span durations
    double self_ns = 0.0;   // minus the child spans
    size_t count = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), NowNs(), 0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t id) {
    if (id < 0) return;
    spans_[id].end = NowNs();
    open_.pop_back();
  }
  // A finished span under the innermost open one.
  void Add(const char* name, int64_t start, int64_t end) {
    if (!enabled_) return;
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), start, end});
  }

  std::map<std::string, Totals> Aggregate() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += static_cast<double>(s.end - s.start);
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = static_cast<double>(spans_[i].end - spans_[i].start);
      t.total_ns += d;
      t.self_ns += d - child[i];
      ++t.count;
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::ofstream f(path);
    f << "id\tname\tparent\tstart_ns\tend_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      f << i << '\t' << spans_[i].name << '\t' << spans_[i].parent << '\t'
        << spans_[i].start << '\t' << spans_[i].end << '\n';
    }
  }

 private:
  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(g_tracer.Begin(name)) {}
  ~ScopedSpan() { g_tracer.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_;
};

// A snapshot view that records a span around each query call.
template <typename ViewT>
class TracedSnapshot {
 public:
  explicit TracedSnapshot(std::shared_ptr<const ViewT> view)
      : view_(std::move(view)) {}
  uint64_t sequence() const { return view_->sequence(); }
  auto Point(EventId e, Timestamp t, Timestamp tau) const {
    ScopedSpan s("snap.point");
    return view_->Point(e, t, tau);
  }
  auto Frequency(EventId e, Timestamp t1, Timestamp t2) const {
    ScopedSpan s("snap.freq");
    return view_->Frequency(e, t1, t2);
  }
  auto BurstyTime(EventId e, double theta, Timestamp tau) const {
    ScopedSpan s("snap.btime");
    return view_->BurstyTime(e, theta, tau);
  }
  auto BurstyEvent(Timestamp t, double theta, Timestamp tau) const {
    ScopedSpan s("snap.bevent");
    return view_->BurstyEvent(t, theta, tau);
  }
  auto TopK(Timestamp t, size_t k, Timestamp tau) const {
    ScopedSpan s("snap.topk");
    return view_->TopK(t, k, tau);
  }

 private:
  std::shared_ptr<const ViewT> view_;
};

// The engine BurstService serves, forwarded with a span around each
// write and snapshot call, so HandleLines' self time excludes them.
template <typename EngineT>
class TracedEngine {
 public:
  using Snapshot = TracedSnapshot<typename EngineT::Snapshot>;
  explicit TracedEngine(EngineT* inner) : inner_(inner) {}

  Status Append(EventId e, Timestamp t, Count count = 1) {
    ScopedSpan s("engine.append");
    return inner_->Append(e, t, count);
  }
  Status AppendBatch(std::span<const WeightedRecord> records,
                     size_t* applied = nullptr) {
    ScopedSpan s("engine.append");
    return inner_->AppendBatch(records, applied);
  }
  Status Sync() { return inner_->Sync(); }
  Status Checkpoint() {
    ScopedSpan s("engine.checkpoint");
    return inner_->Checkpoint();
  }
  uint64_t generation() const { return inner_->generation(); }
  std::shared_ptr<const Snapshot> AcquireSnapshot(uint64_t sequence = 0) {
    ScopedSpan s("engine.snapshot");
    return std::make_shared<const Snapshot>(inner_->AcquireSnapshot(sequence));
  }
  void PublishMetrics() const { inner_->PublishMetrics(); }
  EventId universe_size() const { return inner_->universe_size(); }
  Count TotalCount() const { return inner_->TotalCount(); }
  Count BufferedCount() const { return inner_->BufferedCount(); }
  Timestamp Watermark() const { return inner_->Watermark(); }

 private:
  EngineT* inner_;
};

// ---------------------------------------------------------------------------
// Traced replay.

struct Trace {
  std::map<std::string, double> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

std::vector<std::string> Lines(std::span<const WeightedRecord> records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(AddLine(r));
  return out;
}

std::vector<std::string> Lines(const std::vector<Query>& qs) {
  std::vector<std::string> out;
  for (const Query& q : qs) out.push_back(q.line);
  return out;
}

// Splits query lines into groups of about one 8 KiB recv each.
std::vector<std::vector<std::string>> Chunk(const std::vector<std::string>& lines) {
  std::vector<std::vector<std::string>> out(1);
  size_t bytes = 0;
  for (const std::string& l : lines) {
    out.back().push_back(l);
    bytes += l.size() + 1;
    if (bytes >= kChunkBytes) {
      out.emplace_back();
      bytes = 0;
    }
  }
  if (out.back().empty()) out.pop_back();
  return out;
}

size_t CountLines(const std::string& s, const std::string& prefix) {
  size_t n = 0, pos = 0;
  while (pos < s.size()) {
    const size_t end = s.find('\n', pos);
    if (s.compare(pos, prefix.size(), prefix) == 0) ++n;
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return n;
}

std::vector<std::string> SplitReplies(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t end = s.find('\n', pos);
    out.push_back(s.substr(pos, end - pos));
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return out;
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

struct ReplayTimes {
  double append_ns = 0.0;
  double validate_ns = 0.0;
  double index_ns = 0.0;
};

// Plain BurstEngine replay of the given engine batches. With an
// in-order, lateness-0 engine the batch observer splits each call into
// validation (entry until the observer) and indexing (the rest).
ReplayTimes ReplayPlain(BurstEngine<Pbe1>* engine,
                        const std::vector<std::span<const WeightedRecord>>& chunks,
                        const char* span_name, bool split) {
  int64_t observed = 0;
  if (split) {
    engine->set_batch_append_observer([&observed](std::span<const WeightedRecord>) {
      observed = NowNs();
      return Status::OK();
    });
  }
  ReplayTimes out;
  for (auto chunk : chunks) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(span_name);
      Check(engine->AppendBatch(chunk), "replay add");
      if (split) {
        const int64_t t2 = NowNs();
        g_tracer.Add("core.validate", t0, observed);
        g_tracer.Add("core.index", observed, t2);
        out.validate_ns += static_cast<double>(observed - t0);
        out.index_ns += static_cast<double>(t2 - observed);
      }
    }
    out.append_ns += static_cast<double>(NowNs() - t0);
  }
  engine->set_batch_append_observer(nullptr);
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The served path in-process: BurstService over serve's engine type
// and governor, HandleLines called inline (no TCP, no ring thread) on
// the chunks a TCP recv would deliver.
struct ServedReplies {
  std::vector<std::string> points, scans;
};

template <typename EngineT>
ServedReplies ServeStage(const Workload& w, EngineT* engine,
                         ResourceGovernor* governor, Trace* tr) {
  TracedEngine<EngineT> traced(engine);
  std::mutex write_mu;
  server::BurstServiceOptions opts;
  opts.governor = governor;
  opts.replica.write_mu = &write_mu;
  server::BurstService<TracedEngine<EngineT>> service(&traced, opts);

  auto handle = [&](const char* span, const std::vector<std::string>& lines) {
    bool close = false;
    std::string out;
    {
      ScopedSpan s(span);
      out = service.HandleLines(lines, &close);
    }
    tr->attempted += lines.size();
    const size_t errs = CountLines(out, "ERR ");
    tr->failed += errs;
    if (errs > 0) tr->Fail(std::string("ERR reply in ") + span);
    return out;
  };

  const auto batches = ClientBatches(w);
  for (size_t b = 0; b < batches.size(); ++b) {
    {
      ScopedSpan s("governor.admit");
      Check(governor->Admit(), "admit");
    }
    {
      ScopedSpan s("governor.enforce");
      governor->Enforce();
    }
    for (auto chunk : ServerChunks(batches[b])) handle("server.handle_add", Lines(chunk));
    if (b + 1 == w.checkpoint_batch) handle("server.handle_checkpoint", {"CHECKPOINT"});
    if (w.poll_every > 0 && (b + 1) % w.poll_every == 0) {
      handle("server.handle_poll", Lines(w.dash_set));
    }
  }
  for (size_t i = 0; i < w.fresh.size(); ++i) {
    handle("server.handle_fresh_add", Lines(w.fresh[i]));
    handle("server.handle_fresh_query", Lines(w.fresh_sets[i]));
  }
  // Warm reads: one untimed warm-up query, then each list in recv-sized
  // chunks; the replies are kept for the reference check.
  handle("server.warmup", {w.points.front().line});
  auto ask = [&](const std::vector<Query>& qs) {
    std::string all;
    for (const auto& chunk : Chunk(Lines(qs))) all += handle("server.handle_query", chunk);
    return SplitReplies(all);
  };
  ServedReplies replies;
  replies.points = ask(w.points);
  replies.scans = ask(w.scans);
  return replies;
}

// Every warm query against the cluster snapshot's per-shard
// ReadSnapshots (the core query costs, per call), with each fanned-out
// scan also asked through ClusterSnapshot right before its per-shard
// calls, so the scatter-gather difference is taken on adjacent calls.
// Rounds repeat to lift the calls well above the clock's resolution.
void QueryStage(const shard::ClusterSnapshot<Pbe1>& snap,
                const shard::ShardRouter& router, const Workload& w) {
  for (int round = 0; round < 20; ++round) {
    for (const Query& q : w.points) {
      ScopedSpan s("core.point");
      snap.shard_view(router.ShardOf(q.e)).Point(q.e, q.t, q.tau);
    }
    for (const Query& q : w.scans) {
      switch (q.kind) {
        case QueryKind::kBurstyEvent: {
          {
            ScopedSpan s("shard.scan");
            snap.BurstyEvent(q.t, q.theta, q.tau);
          }
          for (size_t i = 0; i < snap.shard_count(); ++i) {
            ScopedSpan s("core.bevent");
            snap.shard_view(i).BurstyEvent(q.t, q.theta, q.tau);
          }
          break;
        }
        case QueryKind::kTopK: {
          {
            ScopedSpan s("shard.scan");
            snap.TopK(q.t, q.k, q.tau);
          }
          for (size_t i = 0; i < snap.shard_count(); ++i) {
            ScopedSpan s("core.topk");
            snap.shard_view(i).TopK(q.t, q.k, q.tau);
          }
          break;
        }
        case QueryKind::kBurstyTime: {
          ScopedSpan s("core.btime");
          snap.shard_view(router.ShardOf(q.e)).BurstyTime(q.e, q.theta, q.tau);
          break;
        }
        case QueryKind::kPoint:
          break;
      }
    }
  }
}

int TraceRun(const std::string& name, uint64_t seed, const std::string& out) {
  fs::create_directories(out);
  const Workload w = MakeWorkload(name, seed);
  Trace tr;
  auto& m = tr.metrics;
  const auto batches = ClientBatches(w);
  std::vector<std::span<const WeightedRecord>> chunks;  // served order
  for (auto b : batches) {
    for (auto c : ServerChunks(b)) chunks.push_back(c);
  }
  for (const auto& f : w.fresh) chunks.emplace_back(f);
  std::vector<WeightedRecord> in_order;  // the same records, by time
  for (auto c : chunks) in_order.insert(in_order.end(), c.begin(), c.end());
  std::stable_sort(in_order.begin(), in_order.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::vector<std::span<const WeightedRecord>> in_order_chunks;
  {
    size_t pos = 0;
    for (auto c : chunks) {
      in_order_chunks.emplace_back(in_order.data() + pos, c.size());
      pos += c.size();
    }
  }
  const double records = static_cast<double>(in_order.size());
  const std::string dir = out + "/trace-data";
  RemoveAll(dir);
  fs::create_directories(dir);

  // server: parsing and formatting, per line / per reply.
  {
    size_t parsed = 0;
    for (auto b : batches) {
      const auto lines = Lines(b);
      ScopedSpan s("server.parse");
      for (const auto& l : lines) {
        if (!server::ParseRequest(l).ok()) tr.Fail("parse failed: " + l);
      }
      parsed += lines.size();
    }
    for (int round = 0; round < 20; ++round) {
      ScopedSpan s("server.parse");
      for (const Query& q : w.points) server::ParseRequest(q.line);
      for (const Query& q : w.scans) server::ParseRequest(q.line);
      parsed += w.points.size() + w.scans.size();
    }
    m["server.parse_ns"] = g_tracer.Aggregate()["server.parse"].total_ns / parsed;
  }

  // core: in-order, lateness-0 replay split into validation and
  // indexing, then the copy constructor and a snapshot right after its
  // last append.
  BurstEngine<Pbe1> plain(ServeOptions(0));
  const ReplayTimes p0 = ReplayPlain(&plain, in_order_chunks, "core.append", true);
  m["core.validate_ns"] = p0.validate_ns / records;
  m["core.index_ns"] = p0.index_ns / records;
  {
    size_t runs = 0;
    for (auto c : chunks) {
      for (size_t i = 0; i < c.size(); ++i) {
        if (i == 0 || c[i].id != c[i - 1].id || c[i].time != c[i - 1].time) ++runs;
      }
    }
    m["core.runs_per_record"] = static_cast<double>(runs) / records;
  }
  {
    // The copy constructor, then a snapshot, right after the replay's
    // last append.
    int64_t t0 = NowNs();
    {
      ScopedSpan s("core.copy");
      BurstEngine<Pbe1> copy(plain);
    }
    m["core.copy_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    t0 = NowNs();
    {
      ScopedSpan s("core.snapshot");
      plain.AcquireSnapshot();
    }
    m["core.snapshot_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    m["pla.snapshot_share"] = 1.0 - m["core.copy_ms"] / m["core.snapshot_ms"];
  }

  // pla and tracing overhead: the same replay with DP-free cells
  // (budget = buffer), untraced and traced, alternating. It is the
  // cheapest replay, so the most sensitive to per-span cost.
  {
    std::vector<double> off, on;
    ReplayTimes traced_free;
    for (int rep = 0; rep < 3; ++rep) {
      {
        BurstEngine<Pbe1> a(ServeOptions(0, 1500));
        g_tracer.set_enabled(false);
        const int64_t t0 = NowNs();
        ReplayPlain(&a, in_order_chunks, "pla.append", true);
        off.push_back(static_cast<double>(NowNs() - t0));
        g_tracer.set_enabled(true);
      }
      BurstEngine<Pbe1> b(ServeOptions(0, 1500));
      const int64_t t1 = NowNs();
      const ReplayTimes r = ReplayPlain(&b, in_order_chunks, "pla.append", true);
      on.push_back(static_cast<double>(NowNs() - t1));
      if (rep == 0) traced_free = r;
    }
    m["trace.overhead_share"] = Median(on) / Median(off) - 1.0;
    m["pla.ingest_share"] = 1.0 - traced_free.index_ns / p0.index_ns;
  }
  m["core.resident_mb"] = static_cast<double>(plain.MemoryUsage()) / (1 << 20);
  // core: the reorder buffer. Arrival order at lateness 300 (serve's
  // olympic_sharded setting) against the in-order lateness-0 replay.
  ReplayTimes served_plain = p0;
  {
    const Timestamp late = w.lateness > 0 ? w.lateness : kProbeLateness;
    BurstEngine<Pbe1> reorder(ServeOptions(late));
    const ReplayTimes r = ReplayPlain(&reorder, chunks, "core.append_reorder", false);
    m["core.reorder_ns"] = (r.append_ns - p0.append_ns) / records;
    if (w.lateness > 0) served_plain = r;
  }

  // recovery: the same engine batches through DurableBurstEngine, with
  // the midway checkpoint, then Open on the written directory.
  {
    const std::string ddir = dir + "/durable";
    auto d = DurableBurstEngine<Pbe1>::Open(Env::Default(), ddir, ServeOptions(w.lateness));
    Check(d.status(), "open durable");
    auto& durable = *d.value();
    double append_ns = 0.0;
    size_t since_checkpoint = 0, batch_index = 0, chunk_index = 0;
    double checkpoint_ms = 0.0;
    for (auto b : batches) {
      for (auto c : ServerChunks(b)) {
        const int64_t t0 = NowNs();
        {
          ScopedSpan s("recovery.append");
          Check(durable.AppendBatch(chunks[chunk_index]), "durable add");
        }
        append_ns += static_cast<double>(NowNs() - t0);
        since_checkpoint += c.size();
        ++chunk_index;
      }
      if (++batch_index == w.checkpoint_batch) {
        const int64_t t0 = NowNs();
        {
          ScopedSpan s("recovery.checkpoint");
          Check(durable.Checkpoint(), "checkpoint");
        }
        checkpoint_ms = static_cast<double>(NowNs() - t0) / 1e6;
        since_checkpoint = 0;
      }
    }
    for (const auto& f : w.fresh) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan s("recovery.append");
        Check(durable.AppendBatch(f), "durable add");
      }
      append_ns += static_cast<double>(NowNs() - t0);
      since_checkpoint += f.size();
    }
    Check(durable.Sync(), "sync");
    m["recovery.wal_self_ns"] = (append_ns - served_plain.append_ns) / records;
    m["recovery.checkpoint_ms"] = checkpoint_ms;
    m["recovery.wal_bytes_per_record"] =
        static_cast<double>(DirBytes(ddir, "wal-")) / since_checkpoint;
    d.value().reset();
    const int64_t t0 = NowNs();
    {
      ScopedSpan s("recovery.open");
      auto reopened = DurableBurstEngine<Pbe1>::Open(Env::Default(), ddir,
                                                     ServeOptions(w.lateness));
      Check(reopened.status(), "reopen durable");
      const Count got = reopened.value()->TotalCount() + reopened.value()->BufferedCount();
      if (got != in_order.size()) tr.Fail("recovered count differs");
    }
    m["recovery.replay_rps"] = since_checkpoint / (static_cast<double>(NowNs() - t0) / 1e9);
  }

  // server + governor: BurstService::HandleLines over serve's engine.
  // The served replies are checked below against an independent
  // engine: the plain replay, or the shard stage's cluster.
  ServedReplies served;
  std::vector<std::string> expected_points, expected_scans;
  auto expect = [&](const auto& snap) {
    for (const Query& q : w.points) expected_points.push_back(Answer(snap, q));
    for (const Query& q : w.scans) expected_scans.push_back(Answer(snap, q));
  };
  if (w.shards > 1) {
    shard::ClusterOptions copts;
    copts.shards = w.shards;
    auto c = shard::ClusterEngine<Pbe1>::Open(Env::Default(), dir + "/serve",
                                              ServeOptions(w.lateness), copts);
    Check(c.status(), "open cluster");
    ResourceGovernor governor(ServeBudget());
    c.value()->RegisterComponents(&governor);
    served = ServeStage(w, c.value().get(), &governor, &tr);
  } else {
    auto d = DurableBurstEngine<Pbe1>::Open(Env::Default(), dir + "/serve",
                                            ServeOptions(w.lateness));
    Check(d.status(), "open durable");
    auto* engine = &d.value()->engine();
    ResourceGovernor governor(ServeBudget());
    governor.RegisterComponent(
        "engine", [engine] { return engine->MemoryUsage(); },
        [engine](double factor) { engine->Degrade(factor); });
    served = ServeStage(w, d.value().get(), &governor, &tr);
    expect(*plain.AcquireSnapshot());
  }
  {
    // Formatting: the served answers re-formatted, per reply.
    auto snap = plain.AcquireSnapshot();
    std::vector<SnapshotAnswer<double>> values;
    std::vector<SnapshotAnswer<std::vector<EventId>>> events;
    std::vector<SnapshotAnswer<std::vector<std::pair<EventId, double>>>> tops;
    std::vector<SnapshotAnswer<std::vector<TimeInterval>>> intervals;
    for (const Query& q : w.points) values.push_back(snap->Point(q.e, q.t, q.tau));
    for (const Query& q : w.scans) {
      if (q.kind == QueryKind::kBurstyEvent) events.push_back(snap->BurstyEvent(q.t, q.theta, q.tau));
      if (q.kind == QueryKind::kTopK) tops.push_back(snap->TopK(q.t, q.k, q.tau));
      if (q.kind == QueryKind::kBurstyTime) intervals.push_back(snap->BurstyTime(q.e, q.theta, q.tau));
    }
    size_t formatted = 0;
    for (int round = 0; round < 20; ++round) {
      ScopedSpan s("server.format");
      for (const auto& a : values) server::FormatValue(a.value, a.watermark, a.bound);
      for (const auto& a : events) server::FormatEvents(a.value, a.watermark, a.bound);
      for (const auto& a : tops) server::FormatTopK(a.value, a.watermark, a.bound);
      for (const auto& a : intervals) server::FormatIntervals(a.value, a.watermark, a.bound);
      formatted += values.size() + events.size() + tops.size() + intervals.size();
    }
    const auto agg = g_tracer.Aggregate();
    m["server.format_ns"] = agg.at("server.format").total_ns / formatted;
  }

  // shard: ClusterEngine over the served engine batches (one shard on
  // single-shard workloads), each shard's sub-batches replayed alone,
  // and scatter-gather against the per-shard snapshot calls.
  {
    shard::ClusterOptions copts;
    copts.shards = w.shards;
    auto c = shard::ClusterEngine<Pbe1>::Open(Env::Default(), dir + "/cluster",
                                              ServeOptions(w.lateness), copts);
    Check(c.status(), "open cluster");
    auto& cluster = *c.value();
    double cluster_ns = 0.0;
    std::vector<std::vector<WeightedRecord>> parts(w.shards);
    std::vector<std::unique_ptr<DurableBurstEngine<Pbe1>>> alone;
    for (size_t s = 0; s < w.shards; ++s) {
      auto e = DurableBurstEngine<Pbe1>::Open(
          Env::Default(), dir + "/alone-" + std::to_string(s), ServeOptions(w.lateness));
      Check(e.status(), "open shard alone");
      alone.push_back(std::move(e).value());
    }
    std::vector<double> busy(w.shards, 0.0);
    for (auto chunk : chunks) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan s("shard.append");
        Check(cluster.AppendBatch(chunk), "cluster add");
      }
      cluster_ns += static_cast<double>(NowNs() - t0);
      for (auto& p : parts) p.clear();
      for (const auto& r : chunk) parts[cluster.router().ShardOf(r.id)].push_back(r);
      for (size_t s = 0; s < w.shards; ++s) {
        if (parts[s].empty()) continue;
        const int64_t t1 = NowNs();
        {
          ScopedSpan sp("shard.alone");
          Check(alone[s]->AppendBatch(parts[s]), "shard alone add");
        }
        busy[s] += static_cast<double>(NowNs() - t1);
      }
    }
    double sum = 0.0, mx = 0.0;
    for (double b : busy) {
      sum += b;
      mx = std::max(mx, b);
    }
    m["shard.append_ns"] = cluster_ns / records;
    m["shard.busy_skew"] = mx / (sum / static_cast<double>(w.shards));
    m["shard.parallel_eff"] = sum / (static_cast<double>(w.shards) * cluster_ns);
    int64_t t0 = NowNs();
    std::shared_ptr<const shard::ClusterSnapshot<Pbe1>> snap;
    {
      ScopedSpan s("shard.snapshot");
      snap = cluster.AcquireSnapshot();
    }
    m["shard.snapshot_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    if (w.shards > 1) expect(*snap);

    QueryStage(*snap, cluster.router(), w);
    const auto agg = g_tracer.Aggregate();
    const double per_shard_ns = agg.at("core.bevent").total_ns + agg.at("core.topk").total_ns;
    m["shard.scatter_us"] =
        (agg.at("shard.scan").total_ns - per_shard_ns) / agg.at("shard.scan").count / 1e3;
    m["core.point_ns"] = agg.at("core.point").total_ns / agg.at("core.point").count;
    m["core.btime_us"] = agg.at("core.btime").total_ns / agg.at("core.btime").count / 1e3;
    m["core.bevent_us"] = agg.at("core.bevent").total_ns / agg.at("core.bevent").count / 1e3;
    m["core.topk_us"] = agg.at("core.topk").total_ns / agg.at("core.topk").count / 1e3;
  }

  if (served.points != expected_points) tr.Fail("served POINT replies differ from the reference");
  if (served.scans != expected_scans) tr.Fail("served scan replies differ from the reference");

  // Derived server, governor and refresh metrics.
  {
    auto agg = g_tracer.Aggregate();
    double add_records = 0.0;
    for (auto b : batches) add_records += static_cast<double>(b.size());
    m["server.add_self_ns"] = agg["server.handle_add"].self_ns / add_records;
    const double queries = static_cast<double>(w.points.size() + w.scans.size());
    m["server.query_self_ns"] =
        agg["server.handle_query"].self_ns / queries - m["server.format_ns"];
    m["governor.admit_ns"] = agg["governor.admit"].total_ns / agg["governor.admit"].count;
    m["governor.enforce_us"] =
        agg["governor.enforce"].total_ns / agg["governor.enforce"].count / 1e3;
    const double writer_ns =
        agg["server.handle_add"].total_ns + agg["server.handle_poll"].total_ns +
        agg["server.handle_fresh_add"].total_ns + agg["server.handle_fresh_query"].total_ns;
    m["core.refresh_busy_share"] = agg["engine.snapshot"].total_ns / writer_ns;
  }
  m.erase("core.polls");

  g_tracer.Write(out + "/spans.tsv");
  RemoveAll(dir);
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"problems\":[",
              tr.correct ? "true" : "false", tr.attempted, tr.failed);
  for (size_t i = 0; i < tr.problems.size(); ++i) {
    std::printf("%s%s", i > 0 ? "," : "", JsonString(tr.problems[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s%s:%s", first ? "" : ",", JsonString(k).c_str(), JsonNumber(v).c_str());
    first = false;
  }
  std::printf("}}\n");
  return tr.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: perfbench_tool prepare|trace <workload> <seed> <outdir>\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (cmd == "prepare") return Prepare(argv[2], seed, argv[4]);
  if (cmd == "trace") return TraceRun(argv[2], seed, argv[4]);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
