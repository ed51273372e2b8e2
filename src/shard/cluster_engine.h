// ClusterEngine — N durable burst-engine shards behind the
// single-engine Append/AppendBatch/query surface, as a leader or as a
// follower of a leader with the same topology.
//
//   auto cluster = ClusterEngine<Pbe1>::Open(env, dir, engine_opts,
//                                            {.shards = 4});
//   cluster->AppendBatch(records);          // routed + fanned out
//   auto snap = cluster->AcquireSnapshot(); // one view per shard
//   auto hot = snap->BurstyEvent(t, theta, tau);  // scatter-gather
//
//   auto follower = ClusterEngine<Pbe1>::OpenFollower(
//       env, dir2, engine_opts, leader, {.shards = 4});
//   follower->Start();     // shard i follows leader.leader_port + i
//   follower->Promote();   // failover: every shard checkpoints and
//                          // the cluster accepts writes
//
// Why this is sound: the router (shard/shard_router.h) places every
// event id in exactly one shard, so each shard holds a COMPLETE
// history for its id subset and the paper's dyadic θ-pruning rule
// (b_p² − 2·b_l·b_r < θ²) evaluates independently per shard.
// Scatter-gather is then:
//
//   POINT / FREQ / BTIME   route to the owning shard, answer as-is;
//   BEVENT                 fan out, push θ-pruning down per shard,
//                          union the disjoint ascending id sets;
//   TOPK                   per-shard top-k heaps (each shard already
//                          returns its k best), merged descending and
//                          cut at the global k-th value.
//
// With one shard the cluster is its shard: routing is the identity,
// each merge sees one part, and the shard's files sit at the cluster
// directory's root.
//
// Layout on disk (the layout rule, shard/cluster_manifest.h): a
// 1-shard cluster is one DurableBurstEngine directory. An N-shard
// cluster is <dir>/cluster.manifest, pinning (shard count, hash
// seed), plus <dir>/shard-000 ... shard-NNN — each with its own WAL
// and snapshot chain, each recoverable, scrubbable, and replicatable
// on its own. Opening is all-shards-or-fail: a cluster where one
// shard silently failed recovery would serve query answers missing
// that shard's id subset.
//
// Follow mode: shard i is a repl::ReplicaEngine dialing
// leader_port + i, the port a leader ships shard i's WAL on. Shards
// apply independently, so lag() (the serving stamp) is the WORST
// shard's lag. Writes are refused with Unavailable until Promote()
// has promoted EVERY shard, so a half-failed failover never forks
// one shard's history; a promoted cluster writes through the same
// batch path as a leader.
//
// Threading matches the single engine's contract: one writer thread
// calls the mutators and AcquireSnapshot; queries run on immutable
// ClusterSnapshot views from any thread. Internally AppendBatch fans
// each batch out to per-shard ingest workers (one thread and one job
// slot per shard) and waits for all sub-batches, so WAL framing, fsync
// and the SoA sketch kernels of different shards run in parallel while
// the external single-writer discipline is preserved.
//
// Locking: every touch of shard i's DurableBurstEngine holds shard
// i's mutex — the replica's write_mu() in follow mode (its apply
// thread holds it around every apply), an uncontended mutex of the
// cluster's when leading. That covers the ingest workers and the
// serial dispatch, the read-side aggregates, the governor's probes
// and sheds (RegisterComponents), and WithShard(), through which
// callers such as a WAL shipper's state callback reach one shard. No
// path holds two shard mutexes at once, and none takes a caller's
// lock while holding one.

#ifndef BURSTHIST_SHARD_CLUSTER_ENGINE_H_
#define BURSTHIST_SHARD_CLUSTER_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "core/read_snapshot.h"
#include "governor/resource_governor.h"
#include "obs/metrics.h"
#include "recovery/durable_engine.h"
#include "replication/replica_engine.h"
#include "shard/cluster_manifest.h"
#include "shard/shard_router.h"
#include "util/env.h"
#include "util/status.h"

namespace bursthist {
namespace shard {

/// Cluster topology and ingest tuning.
struct ClusterOptions {
  /// Shard count. Persisted in the manifest at creation (one shard
  /// writes none); a later open with a different value is refused.
  size_t shards = 1;
  /// Router hash seed; persisted alongside the shard count.
  uint64_t hash_seed = kDefaultShardHashSeed;
  /// Run one ingest worker thread per shard so AppendBatch
  /// sub-batches ingest in parallel. Off: sub-batches run serially on
  /// the caller thread (deterministic single-threaded mode for tests
  /// and tiny universes).
  bool parallel_ingest = true;
};

/// Immutable scatter-gather query view: one ReadSnapshot per shard,
/// captured back to back by ClusterEngine::AcquireSnapshot. Mirrors
/// the ReadSnapshot surface so the serving layer treats both uniformly.
///
/// Sealing: the shard views are captures (see core/read_snapshot.h).
/// The first query on the cluster view — routed or fanned out — or
/// its first bound() / total_count() seals EVERY shard view, once,
/// under std::call_once, so one reader pays the whole cut's DP up
/// front instead of later queries each paying one shard's share.
///
/// Answer stamps: every answer carries the CLUSTER watermark (the
/// max over shards — event e having no records past its shard's
/// watermark is data, not staleness). Routed answers keep the owning
/// shard's error bound (tighter than the single-engine bound, since
/// the shard's N is smaller); fanned-out answers carry the worst
/// per-shard bound.
template <typename PbeT>
class ClusterSnapshot {
 public:
  ClusterSnapshot(const ShardRouter& router,
                  std::vector<std::shared_ptr<const ReadSnapshot<PbeT>>> views,
                  uint64_t sequence)
      : router_(router), views_(std::move(views)), sequence_(sequence) {
    for (const auto& v : views_) {
      watermark_ = std::max(watermark_, v->watermark());
    }
  }

  SnapshotAnswer<double> Point(EventId e, Timestamp t, Timestamp tau) const {
    return Restamp(Route(e).Point(e, t, tau));
  }

  SnapshotAnswer<double> Frequency(EventId e, Timestamp t1,
                                   Timestamp t2) const {
    return Restamp(Route(e).Frequency(e, t1, t2));
  }

  SnapshotAnswer<std::vector<TimeInterval>> BurstyTime(EventId e, double theta,
                                                       Timestamp tau) const {
    return Restamp(Route(e).BurstyTime(e, theta, tau));
  }

  /// BURSTY EVENT scatter-gather: θ-pruning runs inside each shard's
  /// dyadic index, and the per-shard candidate sets are disjoint
  /// (each id has one home), so the merge is a sort of the
  /// concatenation — no dedup, no re-check.
  SnapshotAnswer<std::vector<EventId>> BurstyEvent(Timestamp t, double theta,
                                                   Timestamp tau) const {
    BURSTHIST_COUNTER(m_fanout, obs::kShardQueryFanoutTotal);
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kShardScatterLatencySeconds);
    SealAll();
    obs::TraceSpan span(m_lat, "shard_scatter_events");
    std::vector<EventId> merged;
    for (const auto& v : views_) {
      std::vector<EventId> part = v->BurstyEvent(t, theta, tau).value;
      merged.insert(merged.end(), part.begin(), part.end());
    }
    m_fanout.Inc(views_.size());
    std::sort(merged.begin(), merged.end());
    return SnapshotAnswer<std::vector<EventId>>{std::move(merged), watermark_,
                                                bound_};
  }

  /// TOP-K scatter-gather: each shard's best-first search already
  /// yields its own top-k heap; the global answer is the k best of
  /// the union (ids are disjoint across shards). Ties at the k-th
  /// value break by ascending id, deterministically.
  SnapshotAnswer<std::vector<std::pair<EventId, double>>> TopK(
      Timestamp t, size_t k, Timestamp tau) const {
    BURSTHIST_COUNTER(m_fanout, obs::kShardQueryFanoutTotal);
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kShardScatterLatencySeconds);
    SealAll();
    obs::TraceSpan span(m_lat, "shard_scatter_topk");
    std::vector<std::pair<EventId, double>> merged;
    for (const auto& v : views_) {
      auto part = v->TopK(t, k, tau).value;
      merged.insert(merged.end(), part.begin(), part.end());
    }
    m_fanout.Inc(views_.size());
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (merged.size() > k) merged.resize(k);
    return SnapshotAnswer<std::vector<std::pair<EventId, double>>>{
        std::move(merged), watermark_, bound_};
  }

  /// Per-shard view, for callers that need the raw partition (tests,
  /// serialization checks).
  const ReadSnapshot<PbeT>& shard_view(size_t shard) const {
    return *views_[shard];
  }
  size_t shard_count() const { return views_.size(); }

  Timestamp watermark() const { return watermark_; }
  Count total_count() const {
    SealAll();
    return total_count_;
  }
  const EffectiveErrorBound& bound() const {
    SealAll();
    return bound_;
  }
  uint64_t sequence() const { return sequence_; }

 private:
  /// Seals every shard view (first call only) and folds their totals
  /// and worst bound into the cluster's.
  void SealAll() const {
    std::call_once(sealed_, [this] {
      for (const auto& v : views_) {
        total_count_ += v->total_count();
        const EffectiveErrorBound& b = v->bound();
        if (b.point_bound >= bound_.point_bound) bound_ = b;
      }
    });
  }

  const ReadSnapshot<PbeT>& Route(EventId e) const {
    SealAll();
    return *views_[router_.ShardOf(e)];
  }

  template <typename T>
  SnapshotAnswer<T> Restamp(SnapshotAnswer<T> ans) const {
    ans.watermark = watermark_;
    return ans;
  }

  ShardRouter router_;
  std::vector<std::shared_ptr<const ReadSnapshot<PbeT>>> views_;
  uint64_t sequence_;
  Timestamp watermark_ = 0;
  mutable std::once_flag sealed_;
  mutable Count total_count_ = 0;
  mutable EffectiveErrorBound bound_;
};

/// The cluster facade: owns N durable shards — DurableBurstEngines
/// when leading, ReplicaEngines when following — and exposes the
/// single-engine mutation/query/maintenance surface (the serving
/// layer is templated on exactly this duck type).
template <typename PbeT>
class ClusterEngine {
 public:
  using EngineOptions = BurstEngineOptions<PbeT>;
  using Snapshot = ClusterSnapshot<PbeT>;

  /// Opens (or creates) a cluster directory as a leader: the layout
  /// check first — topology is pinned at creation and a mismatched
  /// reopen is refused — then every shard recovers, all-or-fail.
  static Result<std::unique_ptr<ClusterEngine<PbeT>>> Open(
      Env* env, const std::string& dir, const EngineOptions& options,
      const ClusterOptions& cluster = ClusterOptions(),
      const DurabilityOptions& durability = DurabilityOptions()) {
    return OpenShards(env, dir, options, cluster, durability, nullptr);
  }

  /// Opens (or creates) `dir` as a follower of a leader with the same
  /// topology: shard i's ReplicaEngine dials leader.leader_port + i.
  /// Nothing is applied until Start(); writes are refused until
  /// Promote().
  static Result<std::unique_ptr<ClusterEngine<PbeT>>> OpenFollower(
      Env* env, const std::string& dir, const EngineOptions& options,
      const repl::ReplicaOptions& leader,
      const ClusterOptions& cluster = ClusterOptions(),
      const DurabilityOptions& durability = DurabilityOptions()) {
    return OpenShards(env, dir, options, cluster, durability, &leader);
  }

  ~ClusterEngine() {
    StopWorkers();
    Stop();
  }
  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  // -- follow mode (no-ops and zeros on a leader) --

  /// Starts every shard's apply thread. On a failure the shards
  /// already started keep running (call Stop() to unwind).
  Status Start() {
    for (size_t i = 0; i < shards_.size(); ++i) {
      repl::ReplicaEngine<PbeT>* replica = shards_[i]->replica.get();
      if (replica == nullptr) continue;
      if (Status st = replica->Start(); !st.ok()) {
        return Status(st.code(), ShardDirName(i) + " start: " + st.message());
      }
    }
    return Status::OK();
  }

  /// Stops every apply thread. Idempotent.
  void Stop() {
    for (auto& s : shards_) {
      if (s->replica != nullptr) s->replica->Stop();
    }
  }

  /// Promotes every shard still following, in order. The first
  /// failure is returned and later shards are NOT attempted — the
  /// operator re-issues PROMOTE and already-promoted shards are
  /// skipped, so the retry converges. Once every shard is promoted,
  /// the global arrival order resumes from the replicated history and
  /// the cluster accepts writes.
  Status Promote() {
    std::lock_guard<std::mutex> lock(promote_mu_);
    if (!follower()) {
      return Status::FailedPrecondition("already promoted");
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      repl::ReplicaEngine<PbeT>* replica = shards_[i]->replica.get();
      if (!replica->follower()) continue;
      if (Status st = replica->Promote(); !st.ok()) {
        return Status(st.code(),
                      ShardDirName(i) + " promote: " + st.message());
      }
    }
    ResumeOrder();
    following_ = false;
    return Status::OK();
  }

  /// True until Promote() has promoted every shard of a follower: a
  /// partially promoted cluster must keep refusing writes, or the
  /// promoted shards would fork ahead of the still-replicating ones.
  bool follower() const { return following_; }

  /// Worst per-shard replication lag — the freshness stamp for
  /// answers merged across shards.
  Timestamp lag() const {
    Timestamp worst = 0;
    for (const auto& s : shards_) {
      if (s->replica != nullptr) worst = std::max(worst, s->replica->lag());
    }
    return worst;
  }

  /// Records applied by replication across shards (the snapshot
  /// staleness token's contribution).
  uint64_t applied_records() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      if (s->replica != nullptr) total += s->replica->applied_records();
    }
    return total;
  }

  /// First sticky unrecoverable replication error across shards; OK
  /// while all are healthy.
  Status last_error() {
    for (auto& s : shards_) {
      if (s->replica == nullptr) continue;
      Status st = s->replica->last_error();
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  // -- writes --

  /// Routes one record to its shard: a one-record AppendBatch.
  Status Append(EventId e, Timestamp t, Count count = 1) {
    const WeightedRecord record{e, t, count};
    return AppendBatch({&record, 1});
  }

  /// Batch ingest: validates the deterministic global prefix,
  /// partitions it into order-preserving per-shard sub-batches, and
  /// dispatches them to the shard workers in parallel. Validation
  /// mirrors the single engine at cluster scope: out-of-range ids are
  /// InvalidArgument, and with max_lateness == 0 the GLOBAL arrival
  /// order must be non-decreasing (per-shard order alone would accept
  /// interleavings a single engine rejects). With lateness > 0 each
  /// shard buffers and re-orders against its own watermark, and the
  /// sweep runs each shard's lateness check against it.
  /// Equal-(id,time) runs stay intact inside one shard's sub-batch, so
  /// each shard's SoA coalescing sees exactly the records a dedicated
  /// engine would. A follower refuses every batch with Unavailable.
  ///
  /// `applied` is the longest prefix of `records` whose records were
  /// all applied. On a validation stop that is the validated prefix,
  /// exactly like the single engine. On a shard failure (a WAL write,
  /// say) the OTHER shards' sub-batches still complete, so records
  /// past the prefix may be applied too, and ordering resumes after
  /// the newest record any shard applied.
  Status AppendBatch(std::span<const WeightedRecord> records,
                     size_t* applied = nullptr) {
    BURSTHIST_COUNTER(m_fanout, obs::kShardBatchFanoutTotal);
    if (applied != nullptr) *applied = 0;
    if (follower()) {
      return Status::Unavailable(
          "follower is read-only; PROMOTE to accept writes");
    }
    if (records.empty()) return Status::OK();

    // Deterministic prefix: stop at the first record any shard would
    // refuse, BEFORE dispatching, so partial application is never
    // interleaved across shards on the validation path.
    Status stop = Status::OK();
    size_t valid = 0;
    {
      bool running_started = started_;
      Timestamp running_last = last_time_;
      for (size_t i = 0; i < shards_.size(); ++i) {
        WithShard(i, [this, i](const DurableBurstEngine<PbeT>& d) {
          shard_watermark_[i] = d.Watermark();
          shard_seen_[i] = d.TotalCount() > 0 || d.BufferedCount() > 0;
        });
      }
      for (; valid < records.size(); ++valid) {
        const WeightedRecord& r = records[valid];
        if (r.id >= options_.universe_size) {
          stop = Status::InvalidArgument("event id exceeds universe size");
          break;
        }
        const size_t s = router_.ShardOf(r.id);
        if (options_.max_lateness == 0) {
          if (running_started && r.time < running_last) {
            stop = Status::OutOfRange("timestamps must be non-decreasing");
            break;
          }
          running_started = true;
          running_last = std::max(running_last, r.time);
        } else {
          if (shard_seen_[s] &&
              r.time < shard_watermark_[s] - options_.max_lateness) {
            stop = Status::OutOfRange("record arrived beyond max_lateness");
            break;
          }
          shard_seen_[s] = true;
          shard_watermark_[s] = std::max(shard_watermark_[s], r.time);
        }
      }
    }

    // Partition the prefix, preserving arrival order within each
    // shard (a subsequence of a globally ordered stream is ordered).
    for (auto& part : parts_) part.clear();
    Timestamp max_time = last_time_;
    for (size_t i = 0; i < valid; ++i) {
      const WeightedRecord& r = records[i];
      parts_[router_.ShardOf(r.id)].push_back(r);
      max_time = std::max(max_time, r.time);
    }

    size_t dispatched = 0;
    for (const auto& part : parts_) {
      if (!part.empty()) ++dispatched;
    }
    const Status dispatch = DispatchParts();
    size_t prefix = valid;
    bool any_applied = valid > 0;
    if (!dispatch.ok()) {
      // Each shard applied a prefix of its own part: walking the batch
      // and counting down each shard's applied count, the global prefix
      // ends at the first record its shard did not apply.
      max_time = last_time_;
      any_applied = false;
      for (size_t i = 0; i < valid; ++i) {
        size_t& left = part_applied_[router_.ShardOf(records[i].id)];
        if (left > 0) {
          --left;
          max_time = std::max(max_time, records[i].time);
          any_applied = true;
        } else {
          prefix = std::min(prefix, i);
        }
      }
    }
    if (applied != nullptr) *applied = prefix;
    if (any_applied) {
      started_ = true;
      last_time_ = max_time;
    }
    if (dispatched > 0) m_fanout.Inc(dispatched);
    if (!dispatch.ok()) return dispatch;
    return stop;
  }

  /// One immutable view per shard, each captured under its shard's
  /// mutex. On a leader no append can interleave (single-writer
  /// contract), so the cluster snapshot is one consistent cut; on a
  /// follower the cut can straddle in-flight applies across shards —
  /// that skew IS the per-shard lag, and answers carry the worst of it.
  std::shared_ptr<const ClusterSnapshot<PbeT>> AcquireSnapshot(
      uint64_t sequence = 0) {
    std::vector<std::shared_ptr<const ReadSnapshot<PbeT>>> views;
    views.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      views.push_back(WithShard(i, [sequence](DurableBurstEngine<PbeT>& d) {
        return d.AcquireSnapshot(sequence);
      }));
    }
    return std::make_shared<const ClusterSnapshot<PbeT>>(
        router_, std::move(views), sequence);
  }

  /// Checkpoints every shard (each rotates its own WAL and writes its
  /// own snapshot). A failure stops at the failing shard; the shards
  /// already checkpointed keep their new generation — checkpoints are
  /// independent and idempotent per shard.
  Status Checkpoint() {
    for (size_t i = 0; i < shards_.size(); ++i) {
      const Status st = WithShard(
          i, [](DurableBurstEngine<PbeT>& d) { return d.Checkpoint(); });
      if (!st.ok()) {
        return Status(st.code(),
                      ShardDirName(i) + " checkpoint: " + st.message());
      }
    }
    return Status::OK();
  }

  /// fsyncs every shard's WAL.
  Status Sync() {
    for (size_t i = 0; i < shards_.size(); ++i) {
      const Status st =
          WithShard(i, [](DurableBurstEngine<PbeT>& d) { return d.Sync(); });
      if (!st.ok()) {
        return Status(st.code(), ShardDirName(i) + " sync: " + st.message());
      }
    }
    return Status::OK();
  }

  /// Scrubs every shard directory and merges the reports (see
  /// ScrubShards for the issue paths).
  Result<ScrubReport> Scrub(const ScrubOptions& opts = ScrubOptions()) {
    return ScrubShards(shards_.size(), [this, &opts](size_t i) {
      return WithShard(
          i, [&opts](DurableBurstEngine<PbeT>& d) { return d.Scrub(opts); });
    });
  }

  /// Runs fn(shard i's DurableBurstEngine) under shard i's mutex and
  /// returns its result: the one way to reach a single shard. `fn`
  /// must not call back into the cluster.
  template <typename Fn>
  decltype(auto) WithShard(size_t i, Fn&& fn) {
    std::lock_guard<std::mutex> lock(*shards_[i]->mu);
    return fn(*shards_[i]->durable);
  }
  template <typename Fn>
  decltype(auto) WithShard(size_t i, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(*shards_[i]->mu);
    return fn(static_cast<const DurableBurstEngine<PbeT>&>(
        *shards_[i]->durable));
  }

  // -- aggregate single-engine surface (the serving duck type) --

  EventId universe_size() const { return options_.universe_size; }

  Count TotalCount() const {
    Count total = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      total += WithShard(i, [](const auto& d) { return d.TotalCount(); });
    }
    return total;
  }

  Count BufferedCount() const {
    Count total = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      total += WithShard(i, [](const auto& d) { return d.BufferedCount(); });
    }
    return total;
  }

  /// Cluster watermark: the max over shards — the last globally
  /// accepted arrival time, matching the single engine's Watermark().
  Timestamp Watermark() const {
    Timestamp w = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      w = std::max(w,
                   WithShard(i, [](const auto& d) { return d.Watermark(); }));
    }
    return w;
  }

  /// Cluster generation: the MINIMUM shard generation — the
  /// conservative answer to "how much checkpoint progress is
  /// guaranteed everywhere".
  uint64_t generation() const {
    uint64_t gen = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const uint64_t g =
          WithShard(i, [](const auto& d) { return d.generation(); });
      gen = i == 0 ? g : std::min(gen, g);
    }
    return gen;
  }

  /// Publishes per-shard engine gauges, then overwrites the
  /// scan-priced engine gauges with cluster aggregates (resident
  /// bytes sum across shards; the bound and cell-mass gauges take the
  /// worst shard) and sets the bursthist_shard_* gauges (the worst
  /// replication lag in follow mode). Per-shard numbers go through
  /// ShardStats()/SHARDSTATS — the registry is label-less by design.
  void PublishMetrics() const {
    BURSTHIST_GAUGE(m_count, obs::kShardCount);
    BURSTHIST_GAUGE(m_skew, obs::kShardWatermarkSkew);
    BURSTHIST_GAUGE(m_resident, obs::kEngineResidentBytes);
    BURSTHIST_GAUGE(m_bound, obs::kEffectivePointBound);
    BURSTHIST_GAUGE(m_max_lag, obs::kShardMaxLag);
    size_t resident = 0;
    double worst_bound = 0.0;
    Timestamp wm_min = 0;
    Timestamp wm_max = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      WithShard(i, [&](const DurableBurstEngine<PbeT>& d) {
        d.engine().PublishMetrics();
        resident += d.engine().MemoryUsage();
        worst_bound =
            std::max(worst_bound, d.engine().EffectivePointBound().point_bound);
        const Timestamp w = d.Watermark();
        wm_min = i == 0 ? w : std::min(wm_min, w);
        wm_max = i == 0 ? w : std::max(wm_max, w);
      });
    }
    m_count.Set(static_cast<double>(shards_.size()));
    m_skew.Set(static_cast<double>(wm_max - wm_min));
    m_resident.Set(static_cast<double>(resident));
    m_bound.Set(worst_bound);
    if (shards_[0]->replica != nullptr) {
      m_max_lag.Set(static_cast<double>(lag()));
    }
  }

  /// Registers every shard's engine with the governor, one component
  /// per shard ("shard-000", ...): each shard audits and sheds its
  /// own slice of the budget, so a hot shard degrades alone instead
  /// of dragging every partition down the ladder. Probes and sheds
  /// hold the shard's mutex, so they never race an apply thread.
  void RegisterComponents(ResourceGovernor* governor) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      governor->RegisterComponent(
          ShardDirName(i),
          [this, i] {
            return WithShard(
                i, [](const auto& d) { return d.engine().MemoryUsage(); });
          },
          [this, i](double factor) {
            WithShard(i, [factor](DurableBurstEngine<PbeT>& d) {
              d.engine().Degrade(factor);
            });
          });
    }
  }

  /// Per-shard stats for SHARDSTATS (the label-less registry cannot
  /// carry per-shard series); follow mode adds each shard's lag and
  /// applied-record count.
  std::vector<ShardStat> ShardStats() const {
    std::vector<ShardStat> out;
    out.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      ShardStat stat;
      stat.shard = i;
      if (const auto* replica = shards_[i]->replica.get()) {
        stat.has_lag = true;
        stat.lag = replica->lag();
        stat.applied = replica->applied_records();
      }
      WithShard(i, [&stat](const DurableBurstEngine<PbeT>& d) {
        stat.total = d.TotalCount();
        stat.buffered = d.BufferedCount();
        stat.watermark = d.Watermark();
        stat.generation = d.generation();
        stat.wal_seq = d.wal_position().seq;
        stat.wal_offset = d.wal_position().offset;
      });
      out.push_back(stat);
    }
    return out;
  }

  size_t shard_count() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }

 private:
  // One shard: its durable engine, owned directly when leading or
  // through a ReplicaEngine when following, and the mutex every touch
  // of it holds (see the header comment).
  struct Shard {
    std::unique_ptr<DurableBurstEngine<PbeT>> owned;
    std::unique_ptr<repl::ReplicaEngine<PbeT>> replica;
    DurableBurstEngine<PbeT>* durable = nullptr;
    std::mutex own_mu;
    std::mutex* mu = &own_mu;
  };

  // One ingest worker per shard, so N shards log and ingest
  // concurrently. The writer hands it one sub-batch at a time through
  // a one-job slot: it sets `records` and `busy` under `mu`, and the
  // worker clears `busy` once `applied` and `status` hold the result.
  // While `busy` is set, the slot belongs to the worker.
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::span<const WeightedRecord> records;
    size_t applied = 0;
    Status status;
    bool busy = false;      // guarded by mu
    bool shutdown = false;  // guarded by mu
  };

  ClusterEngine(const EngineOptions& options, const ClusterOptions& cluster)
      : options_(options),
        router_(cluster.shards, cluster.hash_seed),
        parts_(cluster.shards),
        part_applied_(cluster.shards),
        shard_watermark_(cluster.shards),
        shard_seen_(cluster.shards) {}

  // Both openers: the layout check, then every shard — a leader's
  // DurableBurstEngine, or a ReplicaEngine following `leader` —
  // all-or-fail.
  static Result<std::unique_ptr<ClusterEngine<PbeT>>> OpenShards(
      Env* env, const std::string& dir, const EngineOptions& options,
      const ClusterOptions& cluster, const DurabilityOptions& durability,
      const repl::ReplicaOptions* leader) {
    BURSTHIST_RETURN_IF_ERROR(
        EnsureClusterTopology(env, dir, cluster.shards, cluster.hash_seed));
    std::unique_ptr<ClusterEngine<PbeT>> out(
        new ClusterEngine(options, cluster));
    for (size_t i = 0; i < cluster.shards; ++i) {
      const std::string shard_dir = ShardDir(dir, i, cluster.shards);
      auto s = std::make_unique<Shard>();
      Status st;
      if (leader != nullptr) {
        repl::ReplicaOptions ropts = *leader;
        ropts.leader_port = static_cast<uint16_t>(leader->leader_port + i);
        auto r = repl::ReplicaEngine<PbeT>::Open(env, shard_dir, options,
                                                 durability, ropts);
        st = r.status();
        if (st.ok()) {
          s->replica = std::move(r).value();
          s->durable = s->replica->durable();
          s->mu = s->replica->write_mu();
        }
      } else {
        auto d = DurableBurstEngine<PbeT>::Open(env, shard_dir, options,
                                                durability);
        st = d.status();
        if (st.ok()) {
          s->owned = std::move(d).value();
          s->durable = s->owned.get();
        }
      }
      if (!st.ok()) {
        return Status(st.code(),
                      ShardDirName(i) + " failed to open: " + st.message());
      }
      out->shards_.push_back(std::move(s));
    }
    out->following_ = leader != nullptr;
    out->ResumeOrder();
    if (cluster.parallel_ingest && cluster.shards > 1) out->StartWorkers();
    return out;
  }

  // Global monotonicity resumes where the merged history ended: the
  // max shard watermark is the last accepted arrival time. Runs at
  // open and again at promotion, because replication advances the
  // shards without passing through AppendBatch.
  void ResumeOrder() {
    started_ = false;
    last_time_ = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      WithShard(i, [this](const DurableBurstEngine<PbeT>& d) {
        if (d.TotalCount() > 0) {
          started_ = true;
          last_time_ = std::max(last_time_, d.Watermark());
        }
      });
    }
  }

  void StartWorkers() {
    workers_.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers_.push_back(std::make_unique<Worker>());
      Worker* w = workers_.back().get();
      Shard* shard = shards_[i].get();
      w->thread = std::thread([w, shard] { WorkerLoop(w, shard); });
    }
  }

  void StopWorkers() {
    for (auto& w : workers_) {
      {
        std::lock_guard<std::mutex> lock(w->mu);
        w->shutdown = true;
      }
      w->cv.notify_all();
    }
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
    workers_.clear();
  }

  static void WorkerLoop(Worker* w, Shard* shard) {
    std::unique_lock<std::mutex> lock(w->mu);
    for (;;) {
      w->cv.wait(lock, [w] { return w->busy || w->shutdown; });
      if (!w->busy) return;
      lock.unlock();
      {
        std::lock_guard<std::mutex> shard_lock(*shard->mu);
        w->status = shard->durable->AppendBatch(w->records, &w->applied);
      }
      lock.lock();
      w->busy = false;
      w->cv.notify_one();
    }
  }

  // Runs the partitioned sub-batches (parts_) to completion — through
  // the per-shard workers when they are up, serially otherwise — and
  // records each shard's applied count in part_applied_. Returns the
  // first failing shard's status.
  Status DispatchParts() {
    Status first_error = Status::OK();
    auto collect = [&](size_t i, size_t applied, const Status& st) {
      part_applied_[i] = applied;
      if (first_error.ok() && !st.ok()) {
        first_error =
            Status(st.code(), ShardDirName(i) + ": " + st.message());
      }
    };
    std::fill(part_applied_.begin(), part_applied_.end(), 0);
    if (workers_.empty()) {
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (parts_[i].empty()) continue;
        size_t applied = 0;
        const Status st = WithShard(i, [&](DurableBurstEngine<PbeT>& d) {
          return d.AppendBatch(parts_[i], &applied);
        });
        collect(i, applied, st);
      }
      return first_error;
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (parts_[i].empty()) continue;
      Worker& w = *workers_[i];
      {
        std::lock_guard<std::mutex> lock(w.mu);
        w.records = parts_[i];
        w.busy = true;
      }
      w.cv.notify_one();
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (parts_[i].empty()) continue;
      Worker& w = *workers_[i];
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait(lock, [&w] { return !w.busy; });
      collect(i, w.applied, w.status);
    }
    return first_error;
  }

  EngineOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Follow mode until Promote() completes. The atomic publishes the
  // order state ResumeOrder() rebuilt at promotion to the writer that
  // first sees it false.
  std::atomic<bool> following_{false};
  std::mutex promote_mu_;  // one Promote() at a time

  // Writer-thread state (single-writer contract, like the engine).
  bool started_ = false;
  Timestamp last_time_ = 0;
  std::vector<std::vector<WeightedRecord>> parts_;  // batch scratch
  std::vector<size_t> part_applied_;                // batch scratch
  std::vector<Timestamp> shard_watermark_;          // validation scratch
  std::vector<uint8_t> shard_seen_;                 // validation scratch
};

}  // namespace shard
}  // namespace bursthist

#endif  // BURSTHIST_SHARD_CLUSTER_ENGINE_H_
