// The serving front-end: a TCP line-protocol server over a durable
// engine. `bursthist_cli serve` runs it over shard::ClusterEngine at
// every shard count, leader or follower.
//
// Layering (one writer, many readers):
//
//   connections ──> TcpLineServer ──> BurstService<EngineT> ──┬─ writes:
//     (threads)       (sockets)         (dispatch)            │  write_mu_ →
//                                                             │  governor →
//                                                             │  EngineT
//                                                             └─ reads:
//                                                                SnapshotSlot →
//                                                                EngineT::Snapshot
//
// EngineT is a duck type, not an interface: anything exposing
// AppendBatch/Sync/Checkpoint/generation/AcquireSnapshot/
// PublishMetrics/universe_size/TotalCount/BufferedCount/Watermark and
// a nested `Snapshot` view type serves unchanged (a bare
// DurableBurstEngine does, which is how benches serve one engine).
// ClusterEngine additionally exposes shard_count()/ShardStats(), which
// light up the SHARDSTATS verb and the `shards=` STATS field via
// `if constexpr`; an engine without them answers SHARDSTATS with
// FAILED_PRECONDITION.
//
//  * Ingest (ADD) and the other mutating verbs (SYNC, CHECKPOINT)
//    serialize on one mutex — the engine stays single-writer no matter
//    how many connections are open. Each batch of ADDs is applied on
//    the connection thread that parsed it. Admission control runs
//    first: one ResourceGovernor::AdmitBatch call gates each batch,
//    answering ERR RESOURCE_EXHAUSTED for every record of a refused
//    batch (degradation before refusal — the ladder sheds accuracy
//    first).
//  * Queries never touch the live engine: they run against the
//    snapshot in the SnapshotSlot, refreshed only when stale — i.e.
//    when records were accepted after its capture. Freshness is
//    checked once per run of queries in a request chunk, against a
//    floor sampled after the chunk was read (and again after the
//    chunk's own ADDs flush). A refresh only CAPTURES under the
//    mutex (ripe drain plus deep copy); the first query on the new
//    view seals it (the residual DP) on its own connection thread,
//    so ingest never waits on a seal. Readers never observe a partial
//    cell update, and every reply carries the snapshot's watermark
//    and effective error bound.
//  * METRICS (and HTTP "GET /metrics") reuses the Prometheus
//    exposition from the observability layer.
//
// The TCP layer is plain POSIX (one thread per connection, ephemeral
// port support for tests); it knows nothing about burstiness and
// forwards the lines of each recv chunk to a handler.

#ifndef BURSTHIST_SERVER_INGEST_SERVER_H_
#define BURSTHIST_SERVER_INGEST_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/read_snapshot.h"
#include "governor/resource_governor.h"
#include "obs/metrics.h"
#include "recovery/durable_engine.h"
#include "server/wire.h"
#include "util/status.h"

namespace bursthist {
namespace server {

/// TCP listener configuration.
struct TcpServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port back.
  size_t max_connections = 64;
  size_t max_line_bytes = 1 << 16;
  /// Close a connection that sends nothing for this long (0 = never).
  /// Without it a dead client pins one of max_connections slots
  /// forever — slot exhaustion as a trivial denial of service.
  int idle_timeout_ms = 300000;
  /// Give up on a send that cannot make progress for this long
  /// (0 = wait forever). Bounds how long a stalled client can hold
  /// its handler thread inside ::send.
  int write_timeout_ms = 30000;
};

/// Protocol-agnostic line server: accepts connections, splits the
/// byte stream into lines, and answers each recv chunk's lines with
/// one handler call. A first line starting with "GET " switches the
/// connection to a one-shot HTTP response ("/metrics" → 200 with
/// metrics_text(), anything else → 404), so the same port serves
/// scrapes.
class TcpLineServer {
 public:
  /// Every complete line of one recv chunk at once, in order. Returns
  /// the concatenated replies (one line per request, each
  /// newline-terminated). Set *close to end the connection after
  /// sending them; the handler drops the lines after the
  /// close-triggering request. Seeing a whole chunk lets the service
  /// batch consecutive ADDs from a pipelining client.
  using BatchLineHandler = std::function<std::string(
      const std::vector<std::string>& lines, bool* close)>;
  using MetricsProvider = std::function<std::string()>;

  TcpLineServer() = default;
  ~TcpLineServer();
  TcpLineServer(const TcpLineServer&) = delete;
  TcpLineServer& operator=(const TcpLineServer&) = delete;

  /// Binds, listens, and starts the accept thread. Non-blocking.
  Status Start(const TcpServerOptions& options, BatchLineHandler batch_handler,
               MetricsProvider metrics);

  /// Stops accepting, shuts every open connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// Graceful-shutdown phase 1: close the listener (new connections
  /// are refused) while existing connections keep being served.
  /// Idempotent; Stop() still completes the teardown.
  void StopAccepting();

  /// Graceful-shutdown phase 2: wait up to `grace_ms` for every open
  /// connection to finish. Returns true once idle, false if the
  /// grace period expired with connections still active (callers
  /// typically proceed to Stop() either way).
  bool Drain(int grace_ms);

  /// The bound port (resolves ephemeral port 0).
  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();
  void ReapEndedConnections();
  void ServeConnection(int fd);
  void ServeHttp(int fd, const std::string& first_line);

  TcpServerOptions options_;
  BatchLineHandler batch_handler_;
  MetricsProvider metrics_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable idle_cv_;
  std::vector<int> conn_fds_;  // open connections, for Stop()
  size_t active_ = 0;
  std::vector<std::thread> conn_threads_;   // connections not yet joined
  std::vector<std::thread::id> ended_ids_;  // of those, the ones that ended
};

/// Wiring for serving a replication follower (all hooks are supplied
/// by the replica layer; the service stays template-decoupled from
/// it). When enabled:
///  * ADD is refused with kUnavailable while is_follower() — a stale
///    or demoted follower must never fork history;
///  * PROMOTE invokes promote() (failover to a writable leader);
///  * every query reply is stamped with " lag=<n>" so a client always
///    knows how far behind the leader its answer may be;
///  * the service shares write_mu with the apply thread, and counts
///    applied() records into its snapshot-staleness token so applies
///    refresh the serving snapshot exactly like local ADDs do.
struct ReplicaHooks {
  bool enabled = false;
  std::mutex* write_mu = nullptr;
  std::function<bool()> is_follower;
  std::function<Timestamp()> lag;
  std::function<uint64_t()> applied;
  std::function<Status()> promote;
};

/// Service tuning knobs.
struct BurstServiceOptions {
  /// Refresh the serving snapshot once this many records were accepted
  /// after its capture, as of the freshness floor sampled at the start
  /// of each run of queries in a request chunk (1 = every query sees
  /// every record accepted before its chunk was read; larger trades
  /// freshness for fewer captures). A refresh costs a deep copy under
  /// the write mutex, plus one seal (the residual DP) on the first
  /// query that reads the new view, outside the mutex.
  uint64_t snapshot_staleness_appends = 1;
  /// Optional admission control; may be nullptr. Must already have
  /// its components registered and outlive the service.
  ResourceGovernor* governor = nullptr;
  /// Follower-serving wiring; disabled (leader mode) by default.
  ReplicaHooks replica;
};

/// Dispatches parsed wire requests against one durable engine (see
/// the EngineT duck type in the header comment). Thread-safe: any
/// number of connection threads may call HandleLines().
template <typename EngineT>
class BurstService {
 public:
  /// The immutable view queries run against.
  using Snapshot = typename EngineT::Snapshot;

  BurstService(EngineT* durable, const BurstServiceOptions& options)
      : durable_(durable),
        options_(options),
        write_mu_(options.replica.write_mu != nullptr
                      ? options.replica.write_mu
                      : &own_mu_) {}

  BurstService(const BurstService&) = delete;
  BurstService& operator=(const BurstService&) = delete;

  /// Handles every request line of one recv chunk, in order, and
  /// returns the concatenated newline-terminated replies. Sets *close
  /// on QUIT. Runs of consecutive ADDs become ONE batch, applied on
  /// this thread: one critical section under write_mu_, one governor
  /// admission, one WAL write.
  /// Any other verb flushes the pending batch first, so replies come
  /// back in request order and a QUIT still drops the lines after it.
  ///
  /// Queries check freshness once per run: the staleness token is
  /// sampled as the run's floor when the chunk starts and again after
  /// each of its ADD batches flushes, and every query of the run is
  /// served from a view at or past that floor. A run therefore
  /// captures at most one view, however fast other connections ingest
  /// meanwhile, and every query still covers every record acked before
  /// its request was read.
  std::string HandleLines(const std::vector<std::string>& lines, bool* close) {
    BURSTHIST_COUNTER(m_requests, obs::kServerRequestsTotal);
    BURSTHIST_COUNTER(m_errors, obs::kServerRequestErrorsTotal);
    BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kServerRequestLatencySeconds);
    obs::TraceSpan span(m_lat, "server_request_batch");
    std::string replies;
    std::vector<WeightedRecord> adds;
    uint64_t floor = Token();  // the current query run's floor
    size_t handled = 0;
    auto flush = [&] {
      if (!adds.empty()) {
        FlushAddBatch(adds, &replies);
        floor = Token();
      }
      adds.clear();
    };
    for (const std::string& line : lines) {
      ++handled;
      auto parsed = ParseRequest(line);
      if (!parsed.ok()) {
        flush();
        m_errors.Inc();
        replies += FormatError(parsed.status()) + "\n";
        continue;
      }
      const Request& req = parsed.value();
      if (req.type == RequestType::kAdd) {
        adds.push_back(WeightedRecord{req.e, req.t, req.count});
        continue;
      }
      flush();
      std::string reply = Dispatch(req, close, floor);
      if (reply.compare(0, 4, "ERR ") == 0) m_errors.Inc();
      replies += reply;
      if (replies.empty() || replies.back() != '\n') replies += '\n';
      if (*close) break;
    }
    flush();
    m_requests.Inc(handled);
    return replies;
  }

  /// Prometheus exposition of the process registry, with the served
  /// engine's instantaneous gauges refreshed first.
  std::string MetricsText() {
    {
      // PublishMetrics walks the live index — writer-side state.
      std::lock_guard<std::mutex> lock(*write_mu_);
      durable_->PublishMetrics();
    }
    std::string out;
    obs::MetricsRegistry::Global().WritePrometheus(&out);
    return out;
  }

  /// Records accepted over the wire so far (the snapshot staleness
  /// token).
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }

 private:
  // Every verb but ADD, which HandleLines batches instead. `floor` is
  // the freshness floor of the query run `req` belongs to.
  std::string Dispatch(const Request& req, bool* close, uint64_t floor) {
    switch (req.type) {
      case RequestType::kPing:
        return "PONG";
      case RequestType::kQuit:
        *close = true;
        return "BYE";
      case RequestType::kAdd:
        break;
      case RequestType::kSync: {
        std::lock_guard<std::mutex> lock(*write_mu_);
        const Status st = durable_->Sync();
        return st.ok() ? "OK" : FormatError(st);
      }
      case RequestType::kCheckpoint: {
        std::lock_guard<std::mutex> lock(*write_mu_);
        const Status st = durable_->Checkpoint();
        return st.ok() ? "OK" : FormatError(st);
      }
      case RequestType::kPromote: {
        if (!options_.replica.enabled || !options_.replica.promote) {
          return FormatError(Status::FailedPrecondition(
              "not a replica; PROMOTE only applies to followers"));
        }
        const Status st = options_.replica.promote();
        return st.ok() ? "OK" : FormatError(st);
      }
      case RequestType::kStats:
        return HandleStats();
      case RequestType::kShardStats:
        return HandleShardStats();
      case RequestType::kMetrics:
        return MetricsText() + "END";
      case RequestType::kPoint:
      case RequestType::kFreq:
      case RequestType::kBurstyTime:
      case RequestType::kBurstyEvent:
      case RequestType::kTopK:
        return HandleQuery(req, floor);
    }
    return FormatError(Status::Internal("unhandled request type"));
  }

  // Runs one batch of consecutive ADDs on the calling connection
  // thread and appends one reply line per record.
  void FlushAddBatch(const std::vector<WeightedRecord>& adds,
                     std::string* replies) {
    BURSTHIST_COUNTER(m_errors, obs::kServerRequestErrorsTotal);
    std::vector<std::pair<size_t, Status>> record_errors;
    Status refused;
    if (options_.replica.enabled && options_.replica.is_follower &&
        options_.replica.is_follower()) {
      refused = Status::Unavailable(
          "follower is read-only; PROMOTE to accept writes");
    } else {
      refused = ProcessAddBatch(adds, &record_errors);
    }
    if (!refused.ok()) {
      const std::string err = FormatError(refused) + "\n";
      for (size_t i = 0; i < adds.size(); ++i) *replies += err;
      m_errors.Inc(adds.size());
      return;
    }
    size_t next_err = 0;
    for (size_t i = 0; i < adds.size(); ++i) {
      if (next_err < record_errors.size() &&
          record_errors[next_err].first == i) {
        *replies += FormatError(record_errors[next_err].second) + "\n";
        ++next_err;
        m_errors.Inc();
      } else {
        *replies += "OK\n";
      }
    }
  }

  // The write side of one batch, under write_mu_: one governor
  // admission decision for the whole batch (batch-granular — an
  // overloaded server refuses the batch, not a random suffix of it),
  // then AppendBatch over the remaining span after each validation
  // refusal (a bad id or a late record), so the applied records and
  // per-record errors come out exactly as if each ADD had been
  // appended serially. Any other
  // failure (an I/O error, say) answers its record and the rest of
  // the batch: a sharded engine may have applied some of them, so
  // resubmitting could apply a record twice. Returns the admission
  // status; on OK, *record_errors lists the failures as ascending
  // (index, status) pairs, and every index not listed was applied.
  Status ProcessAddBatch(
      std::span<const WeightedRecord> records,
      std::vector<std::pair<size_t, Status>>* record_errors) {
    BURSTHIST_COUNTER(m_ingested, obs::kServerIngestRecordsTotal);
    std::lock_guard<std::mutex> lock(*write_mu_);
    if (options_.governor != nullptr) {
      BURSTHIST_RETURN_IF_ERROR(options_.governor->AdmitBatch(records.size()));
    }
    size_t begin = 0;
    size_t applied_total = 0;
    while (begin < records.size()) {
      size_t applied = 0;
      const Status st = durable_->AppendBatch(records.subspan(begin), &applied);
      begin += applied;
      applied_total += applied;
      if (st.ok()) break;
      const bool refusal = st.code() == StatusCode::kInvalidArgument ||
                           st.code() == StatusCode::kOutOfRange;
      for (size_t end = refusal ? begin + 1 : records.size(); begin < end;
           ++begin) {
        record_errors->emplace_back(begin, st);
      }
    }
    accepted_.fetch_add(applied_total, std::memory_order_release);
    m_ingested.Inc(applied_total);
    return Status::OK();
  }

  std::string HandleStats() {
    // Reads of live-engine counters are writer-side state too.
    std::lock_guard<std::mutex> lock(*write_mu_);
    std::string out = "STATS total=" + std::to_string(durable_->TotalCount()) +
                      " buffered=" + std::to_string(durable_->BufferedCount()) +
                      " watermark=" + std::to_string(durable_->Watermark()) +
                      " accepted=" + std::to_string(accepted()) +
                      " generation=" + std::to_string(durable_->generation());
    if constexpr (requires { durable_->shard_count(); }) {
      out += " shards=" + std::to_string(durable_->shard_count());
    }
    if (options_.governor != nullptr) {
      out += std::string(" level=") +
             DegradationLevelName(options_.governor->level());
    }
    if (options_.replica.enabled) {
      const bool follower =
          options_.replica.is_follower && options_.replica.is_follower();
      out += std::string(" role=") + (follower ? "follower" : "leader");
      if (options_.replica.applied) {
        out += " applied=" + std::to_string(options_.replica.applied());
      }
      if (options_.replica.lag) {
        out += " lag=" + std::to_string(options_.replica.lag());
      }
    }
    return out;
  }

  /// One line of per-shard numbers the label-less metrics registry
  /// cannot carry: "SHARDSTATS shards=<n> | shard=<i> total=...
  /// buffered=... watermark=... generation=... wal=<seq>/<off>
  /// [lag=... applied=...] | ...". On a replica each row adds its
  /// shard's own replication lag — THE signal for spotting one
  /// stalled partition behind a healthy-looking aggregate. Compiled
  /// only for engine types with ShardStats(); others answer
  /// FAILED_PRECONDITION.
  std::string HandleShardStats() {
    if constexpr (requires { durable_->ShardStats(); }) {
      std::lock_guard<std::mutex> lock(*write_mu_);
      auto stats = durable_->ShardStats();
      std::string out = "SHARDSTATS shards=" + std::to_string(stats.size());
      for (const auto& s : stats) {
        out += " | shard=" + std::to_string(s.shard) +
               " total=" + std::to_string(s.total) +
               " buffered=" + std::to_string(s.buffered) +
               " watermark=" + std::to_string(s.watermark) +
               " generation=" + std::to_string(s.generation) +
               " wal=" + std::to_string(s.wal_seq) + "/" +
               std::to_string(s.wal_offset);
        if (s.has_lag) {
          out += " lag=" + std::to_string(s.lag) +
                 " applied=" + std::to_string(s.applied);
        }
      }
      return out;
    } else {
      return FormatError(Status::FailedPrecondition(
          "not a cluster engine; SHARDSTATS needs ShardStats()"));
    }
  }

  std::string HandleQuery(const Request& req, uint64_t floor) {
    if (req.e >= durable_->universe_size() &&
        (req.type == RequestType::kPoint || req.type == RequestType::kFreq ||
         req.type == RequestType::kBurstyTime)) {
      return FormatError(
          Status::InvalidArgument("event id exceeds universe size"));
    }
    if ((req.type == RequestType::kBurstyTime ||
         req.type == RequestType::kBurstyEvent) &&
        req.theta <= 0.0) {
      return FormatError(Status::InvalidArgument("theta must be positive"));
    }
    if (req.tau < 0) {
      return FormatError(Status::InvalidArgument("tau must be >= 0"));
    }
    std::shared_ptr<const Snapshot> snap = Serving(floor);
    switch (req.type) {
      case RequestType::kPoint: {
        auto ans = snap->Point(req.e, req.t, req.tau);
        return Stamp(FormatValue(ans.value, ans.watermark, ans.bound));
      }
      case RequestType::kFreq: {
        auto ans = snap->Frequency(req.e, req.t, req.t2);
        return Stamp(FormatValue(ans.value, ans.watermark, ans.bound));
      }
      case RequestType::kBurstyTime: {
        auto ans = snap->BurstyTime(req.e, req.theta, req.tau);
        return Stamp(FormatIntervals(ans.value, ans.watermark, ans.bound));
      }
      case RequestType::kBurstyEvent: {
        auto ans = snap->BurstyEvent(req.t, req.theta, req.tau);
        return Stamp(FormatEvents(ans.value, ans.watermark, ans.bound));
      }
      case RequestType::kTopK: {
        auto ans = snap->TopK(req.t, req.k, req.tau);
        return Stamp(FormatTopK(ans.value, ans.watermark, ans.bound));
      }
      default:
        return FormatError(Status::Internal("non-query in HandleQuery"));
    }
  }

  /// Replica-mode answers additionally carry their replication lag:
  /// a follower's snapshot can only be as fresh as what the leader
  /// has shipped, and the client deserves to see that gap.
  std::string Stamp(std::string reply) {
    if (options_.replica.enabled && options_.replica.lag) {
      reply += " lag=" + std::to_string(options_.replica.lag());
    }
    return reply;
  }

  /// Snapshot-staleness token: local accepted records plus records
  /// applied by replication (on a follower the latter is the only
  /// part that ever grows).
  uint64_t Token() const {
    uint64_t token = accepted();
    if (options_.replica.enabled && options_.replica.applied) {
      token += options_.replica.applied();
    }
    return token;
  }

  /// The snapshot a query with freshness floor `floor` (a Token()
  /// sampled after its request was read) runs against: the published
  /// view when it is fresh enough, else a new capture. Only the
  /// capture — ripe drain plus copy — runs under write_mu_; the view's
  /// first reader seals it after the lock is released, so the writer
  /// never waits on a seal. The slot itself is the only reader/writer
  /// shared state; once a reader holds the shared_ptr the view is
  /// immutable.
  std::shared_ptr<const Snapshot> Serving(uint64_t floor) {
    BURSTHIST_GAUGE(m_staleness, obs::kServerSnapshotStalenessAppends);
    // A view captured by another connection after `floor` was sampled
    // has a sequence past it: fresh, not an underflow.
    auto fresh = [&](const std::shared_ptr<const Snapshot>& view) {
      return view != nullptr &&
             (view->sequence() >= floor ||
              floor - view->sequence() < options_.snapshot_staleness_appends);
    };
    auto current = slot_.Current();
    if (!fresh(current)) {
      std::lock_guard<std::mutex> lock(*write_mu_);
      // Re-check under the lock: another connection may have refreshed
      // while we waited.
      current = slot_.Current();
      if (!fresh(current)) {
        current = durable_->AcquireSnapshot(Token());
        slot_.Publish(current);
      }
    }
    m_staleness.Set(floor > current->sequence()
                        ? static_cast<double>(floor - current->sequence())
                        : 0.0);
    return current;
  }

  EngineT* durable_;
  BurstServiceOptions options_;
  std::mutex own_mu_;
  /// Serializes every live-engine touch. Points at own_mu_ in leader
  /// mode, at the replica's mutex when serving a follower (the apply
  /// thread holds the same lock around every apply).
  std::mutex* write_mu_;
  SnapshotSlot<Snapshot> slot_;
  std::atomic<uint64_t> accepted_{0};
};

/// Convenience bundle: one service wired to one TCP listener.
template <typename EngineT>
class IngestServer {
 public:
  IngestServer(EngineT* durable, const BurstServiceOptions& service_options)
      : service_(durable, service_options) {}

  Status Start(const TcpServerOptions& options) {
    return tcp_.Start(
        options,
        TcpLineServer::BatchLineHandler(
            [this](const std::vector<std::string>& lines, bool* close) {
              return service_.HandleLines(lines, close);
            }),
        [this] { return service_.MetricsText(); });
  }

  /// Stops the TCP layer, joining every connection thread.
  void Stop() { tcp_.Stop(); }
  /// Graceful shutdown: StopAccepting() then Drain() then Stop().
  void StopAccepting() { tcp_.StopAccepting(); }
  bool Drain(int grace_ms) { return tcp_.Drain(grace_ms); }
  uint16_t port() const { return tcp_.port(); }
  BurstService<EngineT>& service() { return service_; }

 private:
  BurstService<EngineT> service_;
  TcpLineServer tcp_;
};

}  // namespace server
}  // namespace bursthist

#endif  // BURSTHIST_SERVER_INGEST_SERVER_H_
