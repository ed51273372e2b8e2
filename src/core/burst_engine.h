// BurstEngine — the library's one-stop façade.
//
// Wires an event stream into a dyadic CM-PBE index and exposes the
// paper's three query types behind a small, validated API:
//
//   BurstEngine1 engine(options);            // CM-PBE-1 cells
//   engine.Append(event_id, timestamp);
//   engine.Finalize();
//   double b = engine.PointQuery(e, t, tau);
//   auto when = engine.BurstyTimeQuery(e, theta, tau);
//   auto what = engine.BurstyEventQuery(t, theta, tau);
//
// Unlike the bare structures (which assert on misuse), the engine
// validates ids and timestamp order with Status returns, making it
// the right entry point for ingesting untrusted feeds.
//
// Reads of a LIVE (unfinalized) engine go through one cached
// EngineCapture per engine state: a deep copy covering every accepted
// record — including those still waiting in the re-order buffer — so
// a live answer never silently omits buffered data. Taking the copy
// is cheap; finalizing it (draining the copy's buffer, then PBE-1's
// residual staircase DP) is not, so the capture SEALS itself on its
// first read instead, exactly once, on whichever thread reads first.
// Live queries (QueryView()) and AcquireSnapshot() (core/
// read_snapshot.h) share that capture: AcquireSnapshot() only copies,
// so a writer publishing views under its write lock never runs the
// DP, and the view's first reader pays it. How often to capture is
// the serving layer's call (server/ingest_server.h checks freshness
// once per run of queries). The engine itself stays single-writer:
// Append, AcquireSnapshot and the value-returning queries must come
// from one thread at a time; concurrent readers hold ReadSnapshots.

#ifndef BURSTHIST_CORE_BURST_ENGINE_H_
#define BURSTHIST_CORE_BURST_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/burst_queries.h"
#include "core/cm_pbe.h"
#include "core/dyadic_index.h"
#include "obs/metrics.h"
#include "sketch/space_saving.h"
#include "stream/event_stream.h"
#include "stream/types.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// Immutable query view published by BurstEngine::AcquireSnapshot()
/// (defined in core/read_snapshot.h).
template <typename PbeT>
class ReadSnapshot;

/// A captured engine copy that seals on first read (defined below).
template <typename PbeT>
class EngineCapture;

/// The error bound actually in force for POINT answers — Lemma 5 with
/// the leaf cells' current (possibly degraded/escalated) state folded
/// in:
///   Pr[|b~(t) - b(t)| <= epsilon * N + 4 * cell_error] >= 1 - delta,
/// and exact grid routing (epsilon = delta = 0) when the leaf level is
/// direct-mapped. Degradation widens cell_error; it never invalidates
/// the reported bound.
struct EffectiveErrorBound {
  double epsilon = 0.0;      ///< Count-Min collision rate, e / width.
  double delta = 0.0;        ///< Failure probability, e^-depth.
  double cell_error = 0.0;   ///< Max leaf-cell Delta (PBE-1) or gamma (PBE-2).
  double point_bound = 0.0;  ///< epsilon * N + 4 * cell_error.
};

/// Engine configuration. `universe_size` is required; everything else
/// has paper-default values.
template <typename PbeT>
struct BurstEngineOptions {
  /// K = |Sigma|: event ids must fall in [0, universe_size).
  EventId universe_size = 1;
  /// Count-Min grid shape shared by every tree level (eps = 0.05,
  /// delta = 0.2 defaults, as in Section VI).
  CmPbeOptions grid = CmPbeOptions::FromGuarantee(0.05, 0.2);
  /// Per-cell estimator options (Pbe1Options or Pbe2Options).
  typename PbeT::Options cell;
  /// Subtree test for BURSTY EVENT queries.
  DyadicPruneRule prune_rule = DyadicPruneRule::kPaper;
  /// When > 0, a SpaceSaving summary of this capacity tracks the
  /// heaviest event ids (the intro's "impose a frequency threshold"
  /// filter and Section V's appeared-ids optimization).
  size_t heavy_hitter_capacity = 0;
  /// Bounded out-of-order tolerance: records may arrive up to this
  /// many time units behind the newest timestamp seen; they are
  /// re-ordered in a small buffer before ingestion. 0 = require
  /// strictly non-decreasing input (the paper's stream model). The
  /// buffer holds the records inside the lateness window; MemoryUsage()
  /// counts it, so a governed server's hard budget is what bounds it.
  Timestamp max_lateness = 0;
};

/// Historical burstiness engine over a mixed event stream.
template <typename PbeT>
class BurstEngine {
 public:
  using Options = BurstEngineOptions<PbeT>;

  explicit BurstEngine(const Options& options)
      : options_(options),
        index_(options.universe_size, options.grid, options.cell),
        hitters_(std::max<size_t>(1, options.heavy_hitter_capacity)) {
    index_.set_prune_rule(options.prune_rule);
  }

  /// The engine's one tee: called with every record an append is
  /// about to ingest, after validation and before any state changes —
  /// the recovery subsystem's write-ahead-log tee (recovery/
  /// durable_engine.h). AppendBatch passes its whole admitted prefix
  /// in one call, so log framing and fsync cost one call per batch;
  /// Append passes a one-record span. All-or-nothing: a non-OK return
  /// means none of the span's records were logged, so none of them is
  /// ingested (AppendBatch reports applied == 0). Not serialized.
  using BatchAppendObserver =
      std::function<Status(std::span<const WeightedRecord>)>;
  void set_batch_append_observer(BatchAppendObserver observer) {
    batch_observer_ = std::move(observer);
  }

  /// Ingests one element of the event stream. Rejects out-of-range
  /// ids, appends after Finalize(), and time regressions beyond
  /// options.max_lateness (regressions within the tolerance are
  /// buffered and re-ordered). The per-record reference AppendBatch
  /// is byte-identical to.
  Status Append(EventId e, Timestamp t, Count count = 1) {
    BURSTHIST_COUNTER(m_appends, obs::kEngineAppendsTotal);
    BURSTHIST_COUNTER(m_rejects, obs::kEngineAppendRejectsTotal);
    const WeightedRecord record{e, t, count};
    Status st = Status::OK();
    if (finalized_) {
      st = Status::FailedPrecondition("engine already finalized");
    } else if (e >= options_.universe_size) {
      st = Status::InvalidArgument("event id exceeds universe size");
    } else if (options_.max_lateness == 0 && started_ && t < last_time_) {
      st = Status::OutOfRange("timestamps must be non-decreasing");
    } else if (options_.max_lateness > 0 && started_ &&
               t < watermark_ - options_.max_lateness) {
      st = Status::OutOfRange("record arrived beyond max_lateness");
    } else if (batch_observer_) {
      st = batch_observer_({&record, 1});
    }
    if (!st.ok()) {
      m_rejects.Inc();
      return st;
    }
    if (options_.max_lateness == 0) {
      Ingest(e, t, count);
    } else {
      Buffer(record);
      UpdateIngestGauges();
    }
    m_appends.Inc();
    return Status::OK();
  }

  /// Batch ingestion over a span of records in arrival order. State is
  /// byte-identical to calling Append once per record; the win is the
  /// amortization — one validation sweep, one tee, one
  /// structure-of-arrays sketch update, one metrics refresh per batch
  /// instead of per record (see DyadicBurstIndex::AppendBatch for the
  /// kernel).
  ///
  /// Partial application is deterministic and reported: records
  /// [0, *applied) are fully ingested and everything after them is
  /// untouched. Validation stops at the first record Append would
  /// refuse, so *applied is that record's index; a tee failure voids
  /// the whole batch (*applied == 0), since none of its records were
  /// logged.
  Status AppendBatch(std::span<const WeightedRecord> records,
                     size_t* applied = nullptr) {
    size_t local = 0;
    const Status st = AppendBatchImpl(records, &local);
    if (applied != nullptr) *applied = local;
    return st;
  }

  /// Ingests a whole stream (stops at the first invalid record,
  /// having applied everything before it). The stream is routed
  /// through AppendBatch in fixed-size chunks, so stream ingestion gets
  /// the batched kernel's amortization.
  Status AppendStream(const EventStream& stream) {
    const auto& records = stream.records();
    constexpr size_t kChunk = 4096;
    std::vector<WeightedRecord> chunk;
    for (size_t begin = 0; begin < records.size(); begin += kChunk) {
      const size_t n = std::min(kChunk, records.size() - begin);
      chunk.resize(n);
      for (size_t i = 0; i < n; ++i) {
        chunk[i] = WeightedRecord{records[begin + i].id,
                                  records[begin + i].time, 1};
      }
      BURSTHIST_RETURN_IF_ERROR(AppendBatch({chunk.data(), n}));
    }
    return Status::OK();
  }

  /// Freezes the engine for querying (draining any re-order buffer).
  /// Idempotent.
  void Finalize() {
    if (!finalized_) {
      DrainReorderBuffer(std::numeric_limits<Timestamp>::max());
      index_.Finalize();
      finalized_ = true;
      ++state_version_;
      capture_.reset();
      UpdateIngestGauges();
    }
  }
  /// True once Finalize() froze the engine. Queries no longer require
  /// it: on a live engine they are served through a sealed capture
  /// covering every accepted record (see the class comment), so a
  /// finalized engine only answers cheaper, never differently.
  bool finalized() const { return finalized_; }

  /// Publishes an immutable query view of everything accepted so far:
  /// drains the ripe prefix of the re-order buffer at the current
  /// watermark into the live index, then captures a deep copy
  /// (buffered suffix included) behind a shared_ptr — no finalize, no
  /// DP. The view's first reader seals the copy; readers on other
  /// threads may query it freely while this engine keeps appending,
  /// and every answer carries the watermark at capture and the
  /// effective error bound of the sealed copy. Captures are cached
  /// per engine state, so an acquire with no mutation since the last
  /// one is O(1). Writer-thread only, like Append. Defined in
  /// core/read_snapshot.h.
  std::shared_ptr<const ReadSnapshot<PbeT>> AcquireSnapshot(
      uint64_t sequence = 0);

  /// Monotone counter of state mutations (appends, degradation,
  /// finalize, deserialize) — the staleness token behind the cached
  /// capture. Writer-thread only.
  uint64_t StateVersion() const { return state_version_; }

  /// POINT query q(e, t, tau): estimated burstiness of e at t.
  /// Answers obey Lemma 5 — within eps*N + 4*cell_error of the truth
  /// with probability >= 1 - delta; a ReadSnapshot's bound() reports
  /// the bound in force, degradation included. On a live engine the
  /// answer covers every accepted record (buffered included).
  double PointQuery(EventId e, Timestamp t, Timestamp tau) const {
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kQueryPointLatencySeconds);
    obs::TraceSpan span(m_lat, "point");
    return QueryView().index_.EstimateBurstiness(e, t, tau);
  }

  /// Estimated cumulative frequency F~_e(t) (leaf level).
  double CumulativeQuery(EventId e, Timestamp t) const {
    return QueryView().index_.level(0).EstimateCumulative(e, t);
  }

  /// Estimated frequency of e in the closed time range [t1, t2]
  /// (Section II-A's f_e(S[t1, t2])). A degenerate range with
  /// t1 > t2 selects no substream, so the answer is defined to be 0
  /// (never swapped) — enforced here at the engine layer.
  double FrequencyQuery(EventId e, Timestamp t1, Timestamp t2) const {
    if (t1 > t2) return 0.0;
    return QueryView().index_.level(0).EstimateFrequency(e, t1, t2);
  }

  /// BURSTY TIME query q(e, theta, tau): maximal intervals where the
  /// estimated burstiness of e reaches theta. Cost is linear in the
  /// size of the cells e maps to, not in the history length. The
  /// intervals are exactly consistent with PointQuery's estimates (and
  /// so inherit their Lemma 5 bound).
  std::vector<TimeInterval> BurstyTimeQuery(EventId e, double theta,
                                            Timestamp tau) const {
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kQueryBurstyTimeLatencySeconds);
    obs::TraceSpan span(m_lat, "bursty_time");
    return BurstyTimes(LeafModel{&QueryView().index_.level(0), e}, theta, tau);
  }

  /// BURSTY EVENT query q(t, theta, tau): ids whose estimated
  /// burstiness at t reaches theta, each decided by point queries that
  /// carry the Lemma 5 bound. Precondition: theta > 0.
  std::vector<EventId> BurstyEventQuery(Timestamp t, double theta,
                                        Timestamp tau) const {
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kQueryBurstyEventLatencySeconds);
    BURSTHIST_GAUGE(m_point_queries, obs::kQueryBurstyEventPointQueries);
    obs::TraceSpan span(m_lat, "bursty_event");
    const BurstEngine& view = QueryView();
    auto out = view.index_.BurstyEvents(t, theta, tau);
    m_point_queries.Set(
        static_cast<double>(view.index_.LastQueryPointQueries()));
    return out;
  }

  /// Frequency-filtered BURSTY EVENT query (the paper's introduction:
  /// "one can impose a frequency threshold when detecting bursty
  /// events, i.e., only those bursty events with a reasonable amount
  /// of frequency are worth capturing"): ids bursty at t whose
  /// estimated cumulative frequency at t also reaches min_frequency.
  std::vector<EventId> FrequentBurstyEventQuery(Timestamp t, double theta,
                                                Timestamp tau,
                                                double min_frequency) const {
    BURSTHIST_LATENCY_HISTOGRAM(
        m_lat, obs::kQueryFrequentBurstyEventLatencySeconds);
    BURSTHIST_GAUGE(m_point_queries, obs::kQueryBurstyEventPointQueries);
    obs::TraceSpan span(m_lat, "frequent_bursty_event");
    const BurstEngine& view = QueryView();
    std::vector<EventId> out;
    for (EventId e : view.index_.BurstyEvents(t, theta, tau)) {
      if (view.index_.level(0).EstimateCumulative(e, t) >= min_frequency) {
        out.push_back(e);
      }
    }
    m_point_queries.Set(
        static_cast<double>(view.index_.LastQueryPointQueries()));
    return out;
  }

  /// TOP-K BURSTY EVENT query: the k ids with the largest estimated
  /// burstiness at t (see DyadicBurstIndex::TopKBurstyEvents for the
  /// search's heuristic caveat).
  std::vector<std::pair<EventId, double>> TopKBurstyEvents(
      Timestamp t, size_t k, Timestamp tau) const {
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kQueryTopkLatencySeconds);
    BURSTHIST_GAUGE(m_point_queries, obs::kQueryBurstyEventPointQueries);
    obs::TraceSpan span(m_lat, "topk");
    const BurstEngine& view = QueryView();
    auto out = view.index_.TopKBurstyEvents(t, k, tau);
    m_point_queries.Set(
        static_cast<double>(view.index_.LastQueryPointQueries()));
    return out;
  }

  /// The heaviest tracked event ids (requires
  /// options.heavy_hitter_capacity > 0; empty otherwise).
  std::vector<SpaceSaving::Entry> HeavyHitters(size_t k = 0) const {
    return hitters_.TopK(k);
  }
  const SpaceSaving& heavy_hitters() const { return hitters_; }

  /// Point queries the last BurstyEventQuery needed. On a live engine
  /// the search ran against the cached capture, so the counter is
  /// read from there.
  size_t LastQueryPointQueries() const {
    if (!finalized_ && capture_) {
      return capture_->Sealed().index_.LastQueryPointQueries();
    }
    return index_.LastQueryPointQueries();
  }

  /// K = |Sigma|: ids must fall in [0, universe_size()).
  EventId universe_size() const { return options_.universe_size; }
  /// The configuration the engine was constructed with.
  const Options& options() const { return options_; }
  /// Occurrences ingested into the index so far (Lemma 5's N).
  Count TotalCount() const { return total_count_; }
  /// Accepted records still waiting in the re-order buffer (by count);
  /// they join TotalCount() once the watermark, or Finalize(), drains
  /// them into the index.
  Count BufferedCount() const { return buffered_count_; }
  /// Sketch-size cost model of the index (sum of cell sizes; excludes
  /// allocator overheads — see MemoryUsage() for resident cost).
  size_t SizeBytes() const { return index_.SizeBytes(); }

  /// Resident bytes across index, heavy-hitter summary, and re-order
  /// buffer (live entries; the heap's container capacity is not
  /// observable through std::priority_queue).
  size_t MemoryUsage() const {
    return sizeof(*this) - sizeof(index_) - sizeof(hitters_) +
           index_.MemoryUsage() + hitters_.MemoryUsage() +
           reorder_.size() * sizeof(Pending);
  }

  /// Applies the degradation ladder to the index's live cells (see
  /// CmPbe::Degrade); EffectivePointBound() widens accordingly.
  void Degrade(double gamma_factor) {
    index_.Degrade(gamma_factor);
    ++state_version_;
  }

  /// The POINT-answer error bound currently in force (Lemma 5 with
  /// every band escalation and degradation folded in).
  EffectiveErrorBound EffectivePointBound() const {
    const auto& leaf = index_.level(0);
    EffectiveErrorBound b;
    if (!leaf.options().identity_hash) {
      b.epsilon = std::exp(1.0) / static_cast<double>(leaf.width());
      b.delta = std::exp(-static_cast<double>(leaf.depth()));
    }
    b.cell_error = index_.MaxLeafCellError();
    b.point_bound =
        b.epsilon * static_cast<double>(total_count_) + 4.0 * b.cell_error;
    return b;
  }

  /// High-water timestamp of accepted data: the re-order watermark
  /// when a lateness window is configured, else the last ingested
  /// time. Snapshot answers are stamped with this.
  Timestamp Watermark() const { return std::max(watermark_, last_time_); }

  /// Publishes the engine's instantaneous gauges to the process-wide
  /// metrics registry: re-order depth, watermark lag, resident bytes,
  /// the effective POINT bound, and the leaf grid's worst-case
  /// collision mass. Counters stream continuously from the ingest and
  /// query paths; gauges that cost an index scan (bound, collision
  /// mass, resident bytes) are only refreshed here, so surfacing code
  /// (CLI `metrics`, the periodic stats line, bench snapshots) calls
  /// this right before reading the registry. No-op when compiled with
  /// BURSTHIST_NO_METRICS.
  void PublishMetrics() const {
    BURSTHIST_GAUGE(m_resident, obs::kEngineResidentBytes);
    BURSTHIST_GAUGE(m_bound, obs::kEffectivePointBound);
    BURSTHIST_GAUGE(m_cell_mass, obs::kCmpbeMaxCellMass);
    UpdateIngestGauges();
    m_resident.Set(static_cast<double>(MemoryUsage()));
    m_bound.Set(EffectivePointBound().point_bound);
    m_cell_mass.Set(static_cast<double>(index_.level(0).MaxCellMass()));
  }

  /// Read-only view of the dyadic index backing the engine.
  const DyadicBurstIndex<PbeT>& index() const { return index_; }

  void Serialize(BinaryWriter* w) const {
    w->Put<uint32_t>(0x42454e47);  // "BENG"
    w->Put<uint32_t>(4);
    const size_t frame = CrcFrame::Begin(w);
    w->Put<uint64_t>(total_count_);
    w->Put<int64_t>(last_time_);
    w->Put<uint8_t>(started_ ? 1 : 0);
    w->Put<uint8_t>(finalized_ ? 1 : 0);
    // The out-of-order state, so an unfinalized engine with
    // max_lateness > 0 round-trips losslessly.
    w->Put<int64_t>(watermark_);
    w->Put<uint64_t>(reorder_.size());
    auto pending = reorder_;  // heap drains in time order
    while (!pending.empty()) {
      const Pending& p = pending.top();
      w->Put<int64_t>(p.t);
      w->Put<uint32_t>(p.e);
      w->Put<uint64_t>(p.count);
      pending.pop();
    }
    // Reserved: the retired re-order cap's four slots (cap u64, policy
    // u8, dropped u64, forced drains u64), always zero so the v4
    // layout stays byte for byte.
    w->Put<uint64_t>(0);
    w->Put<uint8_t>(0);
    w->Put<uint64_t>(0);
    w->Put<uint64_t>(0);
    index_.Serialize(w);
    hitters_.Serialize(w);
    CrcFrame::End(w, frame);
  }

  /// Restores into an engine constructed with the same options.
  Status Deserialize(BinaryReader* r) {
    uint32_t magic = 0, version = 0;
    uint8_t started = 0, finalized = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&version));
    if (magic != 0x42454e47) return Status::Corruption("bad engine magic");
    if (version != 4) return Status::Corruption("bad engine version");
    size_t payload_end = 0;
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(r, &payload_end));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&total_count_));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&last_time_));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&started));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&finalized));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&watermark_));
    uint64_t pending_n = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&pending_n));
    if (pending_n > r->remaining() / 20) {
      return Status::Corruption("pending count exceeds payload");
    }
    reorder_ = {};
    buffered_count_ = 0;
    for (uint64_t i = 0; i < pending_n; ++i) {
      Pending p;
      BURSTHIST_RETURN_IF_ERROR(r->Get(&p.t));
      BURSTHIST_RETURN_IF_ERROR(r->Get(&p.e));
      BURSTHIST_RETURN_IF_ERROR(r->Get(&p.count));
      if (p.e >= options_.universe_size) {
        return Status::Corruption("buffered id exceeds universe size");
      }
      reorder_.push(p);
      buffered_count_ += p.count;
    }
    uint64_t cap = 0, dropped = 0, forced = 0;
    uint8_t policy = 0;
    BURSTHIST_RETURN_IF_ERROR(r->Get(&cap));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&policy));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&dropped));
    BURSTHIST_RETURN_IF_ERROR(r->Get(&forced));
    if ((cap | policy | dropped | forced) != 0) {
      return Status::Corruption("reserved re-order cap slots are not zero");
    }
    BURSTHIST_RETURN_IF_ERROR(index_.Deserialize(r));
    BURSTHIST_RETURN_IF_ERROR(hitters_.Deserialize(r));
    BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(r, payload_end));
    // The engine's lifecycle flag and the index cells must agree: a
    // blob claiming "live" over finalized cells would let a later
    // Append freeze-merge into frozen staircases, and "finalized" with
    // buffered records would drop them silently.
    if ((finalized != 0) != index_.level(0).finalized()) {
      return Status::Corruption("engine lifecycle disagrees with index");
    }
    if (finalized != 0 && !reorder_.empty()) {
      return Status::Corruption("finalized engine has buffered records");
    }
    started_ = started != 0;
    finalized_ = finalized != 0;
    ++state_version_;
    capture_.reset();
    return Status::OK();
  }

 private:
  template <typename>
  friend class EngineCapture;

  struct Pending {
    Timestamp t;
    EventId e;
    Count count;
    // Total order (not just by time) so the buffer drains — and hence
    // serializes — in one canonical sequence regardless of arrival
    // order; equal-time records are interchangeable for ingestion.
    bool operator>(const Pending& o) const {
      if (t != o.t) return t > o.t;
      if (e != o.e) return e > o.e;
      return count > o.count;
    }
  };

  void Ingest(EventId e, Timestamp t, Count count) {
    index_.Append(e, t, count);
    if (options_.heavy_hitter_capacity > 0) hitters_.Add(e, count);
    started_ = true;
    last_time_ = t;
    total_count_ += count;
    ++state_version_;
  }

  // Buffers one admitted record (max_lateness > 0): push it, advance
  // the watermark, then ingest whatever the watermark proves ripe.
  // Anything older than (newest - lateness) has been flushed already,
  // which is why validation refuses it.
  void Buffer(const WeightedRecord& r) {
    reorder_.push(Pending{r.time, r.id, r.count});
    buffered_count_ += r.count;
    ++state_version_;
    watermark_ = started_ ? std::max(watermark_, r.time) : r.time;
    started_ = true;
    DrainReorderBuffer(watermark_ - options_.max_lateness);
  }

  Status AppendBatchImpl(std::span<const WeightedRecord> records,
                         size_t* applied) {
    BURSTHIST_COUNTER(m_appends, obs::kEngineAppendsTotal);
    BURSTHIST_COUNTER(m_rejects, obs::kEngineAppendRejectsTotal);
    BURSTHIST_COUNTER(m_batches, obs::kEngineBatchAppendsTotal);
    BURSTHIST_SIZE_HISTOGRAM(m_size, obs::kEngineBatchSizeRecords);
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kEngineBatchAppendLatencySeconds);
    // The latency histogram SAMPLES one batch in 32: two clock reads
    // per batch would be a measurable share of a small batch's total
    // cost, and a 1/32 sample still pins down the latency distribution
    // for any sustained ingest. Counters and the size histogram stay
    // exact.
    std::optional<obs::TraceSpan> span;
    if ((batch_sample_seq_++ & 31u) == 0) {
      span.emplace(m_lat, "batch_append");
    }
    *applied = 0;
    m_batches.Inc();
    m_size.Observe(static_cast<double>(records.size()));
    if (records.empty()) return Status::OK();
    if (finalized_) {
      m_rejects.Inc();
      return Status::FailedPrecondition("engine already finalized");
    }
    // One validation sweep finds the longest prefix Append would accept
    // record by record, tracking the order state — the last ingested
    // time, or at max_lateness > 0 the re-order watermark — as if each
    // earlier record of the batch had been appended.
    const size_t n = records.size();
    size_t valid = 0;
    Status bad = Status::OK();
    size_t m = 0;
    bool weighted = false;
    Count total = 0;
    if (options_.max_lateness != 0) {
      bool seen = started_;
      Timestamp watermark = watermark_;
      for (; valid < n; ++valid) {
        const WeightedRecord& r = records[valid];
        if (r.id >= options_.universe_size) {
          bad = Status::InvalidArgument("event id exceeds universe size");
          break;
        }
        if (seen && r.time < watermark - options_.max_lateness) {
          bad = Status::OutOfRange("record arrived beyond max_lateness");
          break;
        }
        watermark = seen ? std::max(watermark, r.time) : r.time;
        seen = true;
      }
    } else {
      // In order, the same sweep also coalesces the prefix into the
      // structure-of-arrays scratch arrays that one level-major /
      // row-major pass through the dyadic index consumes. Writing
      // scratch is not a state change, so doing it before the tee is
      // safe and saves a second traversal of the 20-byte-stride span.
      //
      // Consecutive records with equal (id, time) — the shape a burst
      // arrives in — coalesce into one weighted entry. This is exactly
      // state-preserving, not an approximation: every PBE cell merges
      // an equal-timestamp Append into its open buffer point
      // (`buffer_.back().count += count`), so one Append of the summed
      // count lands on the identical stored point; SpaceSaving is
      // associative over consecutive same-key Adds through all three of
      // its cases (tracked, free slot, eviction). Levels own disjoint
      // grids and grid rows own disjoint cells, so every cell still sees
      // its updates in record order, and the batch replays to
      // byte-identical state while paying the level-by-row
      // hash-and-dispatch fan-out once per run instead of once per
      // record.
      if (batch_ids_.size() < n) {
        batch_ids_.resize(n);
        batch_times_.resize(n);
        batch_counts_.resize(n);
      }
      Timestamp prev = started_ ? last_time_ : records.front().time;
      // The open run lives in registers; the scratch arrays see one
      // store per merged entry, not one per record — on bursty input
      // that is nearly an order of magnitude fewer stores.
      EventId run_id = 0;
      Timestamp run_time = 0;
      Count run_count = 0;
      bool run_open = false;
      for (; valid < n; ++valid) {
        const WeightedRecord& r = records[valid];
        if (r.id >= options_.universe_size) {
          bad = Status::InvalidArgument("event id exceeds universe size");
          break;
        }
        if (r.time < prev) {
          bad = Status::OutOfRange("timestamps must be non-decreasing");
          break;
        }
        prev = r.time;
        total += r.count;
        if (run_open && run_id == r.id && run_time == r.time) {
          run_count += r.count;
          weighted = true;
        } else {
          if (run_open) {
            batch_ids_[m] = run_id;
            batch_times_[m] = run_time;
            batch_counts_[m] = run_count;
            ++m;
          }
          run_id = r.id;
          run_time = r.time;
          run_count = r.count;
          run_open = true;
          weighted |= r.count != 1;
        }
      }
      if (run_open) {
        batch_ids_[m] = run_id;
        batch_times_[m] = run_time;
        batch_counts_[m] = run_count;
        ++m;
      }
    }
    // Tee the admitted prefix, before any state changes (a record is
    // never ingested unless it was logged), then apply it.
    Status err = bad;
    if (valid > 0 && batch_observer_) {
      if (Status st = batch_observer_(records.first(valid)); !st.ok()) {
        valid = 0;
        err = st;
      }
    }
    if (options_.max_lateness != 0) {
      for (size_t i = 0; i < valid; ++i) Buffer(records[i]);
      UpdateIngestGauges();
    } else if (valid > 0) {
      ApplyCoalesced(m, weighted, total, records[valid - 1].time);
    }
    *applied = valid;
    m_appends.Inc(valid);
    if (!err.ok()) {
      m_rejects.Inc();
      return err;
    }
    return Status::OK();
  }

  // Applies the m coalesced entries sitting in the batch_* scratch
  // arrays: one level-major pass through the dyadic index, the heavy
  // hitters, then the running totals.
  void ApplyCoalesced(size_t m, bool weighted, Count total, Timestamp last) {
    index_.AppendBatch(batch_ids_.data(), batch_times_.data(),
                       weighted ? batch_counts_.data() : nullptr, m,
                       &batch_level_ids_, &batch_slots_, &batch_level_times_,
                       &batch_level_counts_);
    if (options_.heavy_hitter_capacity > 0) {
      for (size_t i = 0; i < m; ++i) {
        hitters_.Add(batch_ids_[i], batch_counts_[i]);
      }
    }
    started_ = true;
    last_time_ = last;
    total_count_ += total;
    ++state_version_;
  }

  // A deep copy for a read view: every accepted record, the buffered
  // suffix still in the copy's own re-order buffer, no tee and
  // no capture cache. Copy only — Seal() finalizes it.
  BurstEngine CaptureCopy() const {
    BurstEngine copy(*this);
    copy.batch_observer_ = nullptr;
    copy.capture_.reset();
    return copy;
  }

  // Finalizes a captured copy in place: drains its re-order buffer,
  // then closes every cell (PBE-1's residual staircase DP). Quiet — no
  // gauge writes, so the live engine keeps owning the process-wide
  // ingest gauges mid-stream. No-op on an already finalized copy.
  void Seal() {
    if (finalized_) return;
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kSnapshotSealLatencySeconds);
    obs::TraceSpan span(m_lat, "seal_snapshot");
    DrainReorderBuffer(std::numeric_limits<Timestamp>::max());
    index_.Finalize();
    finalized_ = true;
  }

  // The capture of the current engine state, retaken (copy only)
  // whenever state_version_ moved, so AcquireSnapshot() and live
  // queries between the same appends share one copy and one seal.
  // Mutable state behind const methods: writer-thread only.
  const std::shared_ptr<const EngineCapture<PbeT>>& LiveCapture() const {
    if (!capture_ || capture_version_ != state_version_) {
      capture_ = std::make_shared<const EngineCapture<PbeT>>(CaptureCopy());
      capture_version_ = state_version_;
    }
    return capture_;
  }

  // The engine value queries are answered from: *this once finalized,
  // else the sealed live capture. Queries share the engine's
  // single-writer contract (concurrent readers use ReadSnapshots).
  const BurstEngine& QueryView() const {
    if (finalized_) return *this;
    return LiveCapture()->Sealed();
  }

  // Flushes buffered records with timestamps <= up_to, in time order.
  void DrainReorderBuffer(Timestamp up_to) {
    while (!reorder_.empty() && reorder_.top().t <= up_to) {
      const Pending p = reorder_.top();
      reorder_.pop();
      buffered_count_ -= p.count;
      Ingest(p.e, p.t, p.count);
    }
  }

  // Refreshes the cheap per-append gauges (buffer depth, watermark
  // lag). Called after every buffered Append and on Finalize; the
  // strictly-ordered fast path skips it (depth is always zero there).
  void UpdateIngestGauges() const {
    BURSTHIST_GAUGE(m_depth, obs::kEngineReorderDepth);
    BURSTHIST_GAUGE(m_lag, obs::kEngineWatermarkLag);
    m_depth.Set(static_cast<double>(reorder_.size()));
    m_lag.Set(reorder_.empty()
                  ? 0.0
                  : static_cast<double>(watermark_ - reorder_.top().t));
  }

  // Adapter presenting one event's leaf-level view to BurstyTimes.
  struct LeafModel {
    static constexpr bool kPiecewiseConstant = PbeT::kPiecewiseConstant;
    const CmPbe<PbeT>* grid;
    EventId e;
    double EstimateBurstiness(Timestamp t, Timestamp tau) const {
      return grid->EstimateBurstiness(e, t, tau);
    }
    std::vector<Timestamp> Breakpoints() const { return grid->Breakpoints(e); }
  };

  Options options_;
  DyadicBurstIndex<PbeT> index_;
  SpaceSaving hitters_;
  BatchAppendObserver batch_observer_;
  // Structure-of-arrays scratch for AppendBatch; reused across batches
  // so the steady-state batch path does not allocate.
  std::vector<EventId> batch_ids_;
  std::vector<Timestamp> batch_times_;
  std::vector<Count> batch_counts_;
  std::vector<EventId> batch_level_ids_;
  std::vector<Timestamp> batch_level_times_;
  std::vector<Count> batch_level_counts_;
  std::vector<uint32_t> batch_slots_;
  /// Rolling sequence for the 1-in-32 batch-latency sample.
  uint32_t batch_sample_seq_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      reorder_;
  Count buffered_count_ = 0;
  bool started_ = false;
  bool finalized_ = false;
  Timestamp last_time_ = 0;
  Timestamp watermark_ = 0;
  Count total_count_ = 0;
  // Read-view cache: mutation counter + the capture of the state it
  // names (see LiveCapture()).
  uint64_t state_version_ = 0;
  mutable std::shared_ptr<const EngineCapture<PbeT>> capture_;
  mutable uint64_t capture_version_ = 0;
};

/// One capture of a live BurstEngine, shared by every read view cut
/// at the same engine state. Built on the writer thread from a plain
/// deep copy; the copy is sealed (finalized) exactly once, under
/// std::call_once, by the first thread that reads it. Concurrent
/// first readers wait for that one seal; later readers share it.
template <typename PbeT>
class EngineCapture {
 public:
  explicit EngineCapture(BurstEngine<PbeT> copy) : engine_(std::move(copy)) {}

  /// The sealed copy; the first caller pays the seal.
  const BurstEngine<PbeT>& Sealed() const {
    std::call_once(sealed_, [this] {
      engine_.Seal();
      bound_ = engine_.EffectivePointBound();
    });
    return engine_;
  }

  /// The POINT error bound of the sealed copy (seals first).
  const EffectiveErrorBound& bound() const {
    Sealed();
    return bound_;
  }

 private:
  mutable std::once_flag sealed_;
  mutable BurstEngine<PbeT> engine_;
  mutable EffectiveErrorBound bound_;
};

/// The paper's two configurations.
using BurstEngine1 = BurstEngine<Pbe1>;
using BurstEngine2 = BurstEngine<Pbe2>;

}  // namespace bursthist

#endif  // BURSTHIST_CORE_BURST_ENGINE_H_
