// ReadSnapshot — epoch-style immutable query views over a live
// BurstEngine.
//
// The engine is single-writer: Append and the value-returning queries
// must come from one thread. To serve queries *while* ingestion
// continues, the writer periodically calls
//
//   auto snap = engine.AcquireSnapshot();   // writer thread
//   slot.Publish(snap);                     // any SnapshotSlot
//
// and reader threads query whatever view is current:
//
//   auto view = slot.Current();             // reader threads
//   auto ans = view->Point(e, t, tau);      // ans.value / .watermark /
//                                           // .bound
//
// A view is made in two steps, on two threads:
//
//  * Capture (writer thread, under whatever lock serializes writes).
//    AcquireSnapshot() drains the ripe prefix of the re-order buffer
//    at the current watermark (so ripe records reach the live index,
//    not just the copy), then takes a deep copy of the engine covering
//    EVERY accepted record — buffered suffix included. That is all:
//    milliseconds of copying, no finalize, no DP.
//  * Seal (first reader). The first query on the view — or its
//    engine(), bound() or total_count() — finalizes the copy exactly
//    once, under std::call_once: it drains the copy's re-order buffer
//    and runs PBE-1's residual staircase DP over every open cell
//    buffer. Concurrent first readers wait for that one seal; every
//    later reader shares the sealed result.
//
// A sealed view holds only its cells' models: each cell's seal frees
// the buffer copy it compressed and fits the model to its points, so
// the view costs no more than an engine reloaded from its serialized
// bytes. Only between capture and seal does it carry copies of the
// open buffers.
//
// From capture on, the view is immutable shared state as far as any
// reader can tell: appends keep mutating the live index while readers
// traverse the frozen copy, so a reader can never observe a partially
// updated cell. Each answer carries the watermark the view was
// captured at and the effective error bound of the sealed copy (Lemma
// 5 with degradation folded in), so a serving layer can report
// exactly how fresh and how accurate its reply is.
//
// The capture is the same one the engine's live queries read
// (BurstEngine::QueryView()), cached per engine state: acquiring a
// view right after a live query, or twice with no append in between,
// shares one copy and one seal. How often a serving layer captures is
// its own freshness policy (server/ingest_server.h checks it once per
// run of queries).

#ifndef BURSTHIST_CORE_READ_SNAPSHOT_H_
#define BURSTHIST_CORE_READ_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "core/burst_queries.h"
#include "obs/metrics.h"
#include "stream/types.h"

namespace bursthist {

/// One snapshot answer: the value plus the provenance a serving layer
/// reports with it — the watermark the view was captured at and the
/// POINT error bound in force at capture (Lemma 5, degradation and
/// buffered records included).
template <typename T>
struct SnapshotAnswer {
  T value;
  Timestamp watermark = 0;
  EffectiveErrorBound bound;
};

/// An immutable, shareable query view of a BurstEngine at one capture
/// point. Thread-safe for any number of concurrent readers; holds the
/// underlying capture alive for as long as any reader does. Every
/// accessor except watermark() and sequence() seals the capture first.
template <typename PbeT>
class ReadSnapshot {
 public:
  /// Wraps a capture. Callers normally go through
  /// BurstEngine::AcquireSnapshot() instead of constructing directly.
  ReadSnapshot(std::shared_ptr<const EngineCapture<PbeT>> capture,
               Timestamp watermark, uint64_t sequence)
      : capture_(std::move(capture)),
        watermark_(watermark),
        sequence_(sequence) {}

  /// POINT query q(e, t, tau) against the frozen view.
  SnapshotAnswer<double> Point(EventId e, Timestamp t, Timestamp tau) const {
    return Stamp(engine().PointQuery(e, t, tau));
  }

  /// Estimated frequency of e in [t1, t2] (0 when t1 > t2).
  SnapshotAnswer<double> Frequency(EventId e, Timestamp t1,
                                   Timestamp t2) const {
    return Stamp(engine().FrequencyQuery(e, t1, t2));
  }

  /// BURSTY TIME query q(e, theta, tau).
  SnapshotAnswer<std::vector<TimeInterval>> BurstyTime(EventId e, double theta,
                                                       Timestamp tau) const {
    return Stamp(engine().BurstyTimeQuery(e, theta, tau));
  }

  /// BURSTY EVENT query q(t, theta, tau). Precondition: theta > 0.
  SnapshotAnswer<std::vector<EventId>> BurstyEvent(Timestamp t, double theta,
                                                   Timestamp tau) const {
    return Stamp(engine().BurstyEventQuery(t, theta, tau));
  }

  /// TOP-K BURSTY EVENT query.
  SnapshotAnswer<std::vector<std::pair<EventId, double>>> TopK(
      Timestamp t, size_t k, Timestamp tau) const {
    return Stamp(engine().TopKBurstyEvents(t, k, tau));
  }

  /// The sealed engine view itself, for callers needing the full
  /// query surface (heavy hitters, serialization, ...).
  const BurstEngine<PbeT>& engine() const { return capture_->Sealed(); }

  /// High-water timestamp of the data this view covers.
  Timestamp watermark() const { return watermark_; }
  /// Occurrences the view covers (Lemma 5's N, buffered included).
  Count total_count() const { return engine().TotalCount(); }
  /// The POINT error bound of the sealed view.
  const EffectiveErrorBound& bound() const { return capture_->bound(); }
  /// Caller-supplied capture token (e.g. accepted-record count) for
  /// staleness decisions; 0 when not provided.
  uint64_t sequence() const { return sequence_; }

 private:
  template <typename T>
  SnapshotAnswer<T> Stamp(T value) const {
    return SnapshotAnswer<T>{std::move(value), watermark_, bound()};
  }

  std::shared_ptr<const EngineCapture<PbeT>> capture_;
  Timestamp watermark_;
  uint64_t sequence_;
};

/// The publication point between the single writer thread and any
/// number of reader threads: the writer Publish()es each new snapshot,
/// readers grab Current() and query it lock-free from then on. The
/// mutex guards only the pointer swap — never a query. Parameterized
/// on the VIEW type (ReadSnapshot<PbeT>, or a sharded cluster's
/// merged view), not the sketch configuration.
template <typename ViewT>
class SnapshotSlot {
 public:
  void Publish(std::shared_ptr<const ViewT> snap) {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(snap);
  }

  /// The most recently published view; nullptr before first Publish.
  std::shared_ptr<const ViewT> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ViewT> current_;
};

template <typename PbeT>
std::shared_ptr<const ReadSnapshot<PbeT>> BurstEngine<PbeT>::AcquireSnapshot(
    uint64_t sequence) {
  BURSTHIST_COUNTER(m_snaps, obs::kEngineReadSnapshotsTotal);
  BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kSnapshotAcquireLatencySeconds);
  obs::TraceSpan span(m_lat, "acquire_snapshot");
  // Ripe records belong in the live index, not just the copy: drain
  // the prefix the watermark already proves complete.
  if (!finalized_ && options_.max_lateness > 0) {
    DrainReorderBuffer(watermark_ - options_.max_lateness);
    UpdateIngestGauges();
  }
  m_snaps.Inc();
  return std::make_shared<const ReadSnapshot<PbeT>>(LiveCapture(), Watermark(),
                                                    sequence);
}

}  // namespace bursthist

#endif  // BURSTHIST_CORE_READ_SNAPSHOT_H_
