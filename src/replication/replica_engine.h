// Follower-side replication: connect to a leader, bootstrap, apply,
// survive abuse, and (on request) take over.
//
//   auto replica = ReplicaEngine<Pbe1>::Open(env, dir, engine_opts,
//                                            durability, options);
//   replica->Start();                 // apply thread: connect + apply
//   ... serve reads from replica->durable()->engine() snapshots ...
//   replica->Promote();               // failover: writable leader
//
// Robustness contract:
//
//  * Reconnect: any broken/dead/refused connection retries with
//    capped exponential backoff, presenting the durable applied
//    position as the resume token — records are applied exactly once
//    across arbitrarily many disconnects.
//  * Corruption: a frame that fails its CRC (or a garbled envelope)
//    rejects the CONNECTION, never the replica — the buffered bytes
//    die with the socket and the stream resumes from the last applied
//    record. Nothing unverified ever reaches the engine or the WAL.
//  * Crash safety: each applied record is ONE local WAL frame
//    (kReplicated) carrying both the event and the leader position
//    just past it, so a follower crash can never strand the resume
//    token out of step with the applied state.
//  * Failover: Promote() stops replication, checkpoints (fresh WAL
//    segment + snapshot), and flips to writable only if the
//    checkpoint lands. While a follower, writes are refused upstream
//    (server layer) with kUnavailable.
//
// The apply thread holds one write mutex (write_mu()) around every
// apply; every other touch of durable() must hold it too.
// shard::ClusterEngine's follow mode uses it as the shard's mutex, so
// snapshot refreshes, maintenance verbs and the governor interleave
// safely with applies.

#ifndef BURSTHIST_REPLICATION_REPLICA_ENGINE_H_
#define BURSTHIST_REPLICATION_REPLICA_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "recovery/durable_engine.h"
#include "replication/repl_wire.h"
#include "replication/transport.h"
#include "util/random.h"
#include "util/status.h"

namespace bursthist {
namespace repl {

struct ReplicaOptions {
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;
  /// Per-Recv poll timeout; bounds Stop()/Promote() latency.
  int recv_timeout_ms = 100;
  /// No frame (not even a heartbeat) for this long → the connection
  /// is presumed dead and is re-dialed.
  int dead_after_ms = 3000;
  /// Reconnect backoff: initial delay, doubled per failure, capped.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  /// Fraction of each backoff delay randomized away (downward only):
  /// the actual sleep is uniform in [delay*(1-jitter), delay]. Keeps
  /// a fleet of followers orphaned by the same leader crash from
  /// re-dialing in lockstep. 0 disables jitter.
  double backoff_jitter = 0.2;
  /// Seed for the jitter stream; 0 = derive one per replica (from the
  /// clock and object identity). Tests pin it for reproducibility.
  uint64_t backoff_seed = 0;
  /// Connection seam; nullptr = ReplTransport::Default(). Tests pass
  /// a FlakyTransport here.
  ReplTransport* transport = nullptr;
};

/// The jittered sleep for one backoff step: uniform in
/// [base_ms*(1-jitter), base_ms], never below 1ms. `jitter` is
/// clamped to [0, 1]. Deterministic in the Rng stream — the testable
/// core of the reconnect backoff policy.
inline int JitteredDelay(int base_ms, double jitter, Rng* rng) {
  if (base_ms <= 1) return 1;
  const double j = std::min(1.0, std::max(0.0, jitter));
  if (j == 0.0) return base_ms;
  const double scaled = base_ms * (1.0 - j * rng->NextDouble());
  return std::max(1, static_cast<int>(scaled));
}

template <typename PbeT>
class ReplicaEngine {
 public:
  using Durable = DurableBurstEngine<PbeT>;

  /// Opens (or recovers) the follower's own durable directory. A
  /// directory holding locally-written (non-replicated) history is
  /// refused: following a leader on top of a forked local past would
  /// silently merge two histories.
  static Result<std::unique_ptr<ReplicaEngine<PbeT>>> Open(
      Env* env, const std::string& dir,
      const BurstEngineOptions<PbeT>& engine_options,
      const DurabilityOptions& durability, const ReplicaOptions& options) {
    auto durable = Durable::Open(env, dir, engine_options, durability);
    if (!durable.ok()) return durable.status();
    if (durable.value()->engine().TotalCount() > 0 &&
        durable.value()->replicated_through() == WalPosition{}) {
      return Status::FailedPrecondition(
          "directory holds non-replicated local history; refusing to "
          "follow on top of it");
    }
    return std::unique_ptr<ReplicaEngine<PbeT>>(
        new ReplicaEngine(std::move(durable).value(), options));
  }

  ~ReplicaEngine() { Stop(); }
  ReplicaEngine(const ReplicaEngine&) = delete;
  ReplicaEngine& operator=(const ReplicaEngine&) = delete;

  /// Starts the apply thread. Idempotent once started.
  Status Start() {
    if (apply_thread_.joinable()) {
      return Status::FailedPrecondition("replica already started");
    }
    stop_.store(false, std::memory_order_release);
    apply_thread_ = std::thread([this] { ApplyLoop(); });
    return Status::OK();
  }

  /// Stops replicating (the engine keeps serving whatever was
  /// applied). Idempotent.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_.store(true, std::memory_order_release);
    }
    wake_cv_.notify_all();
    if (apply_thread_.joinable()) apply_thread_.join();
  }

  /// Failover: stop replicating, checkpoint (opening a fresh WAL
  /// segment), and become writable. On checkpoint failure the
  /// replica STAYS a read-only follower and the error is returned —
  /// a leader whose first durability act failed is no leader.
  Status Promote() {
    if (!follower_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("already promoted");
    }
    Stop();
    std::lock_guard<std::mutex> lock(write_mu_);
    BURSTHIST_RETURN_IF_ERROR(durable_->Checkpoint());
    follower_.store(false, std::memory_order_release);
    return Status::OK();
  }

  /// True until a successful Promote().
  bool follower() const { return follower_.load(std::memory_order_acquire); }

  /// True while a connection to the leader is up.
  bool connected() const { return connected_.load(std::memory_order_acquire); }

  /// Replication lag in stream-time units: the leader watermark from
  /// its latest heartbeat minus the applied watermark (0 before the
  /// first heartbeat, never negative).
  Timestamp lag() const {
    const Timestamp leader = leader_watermark_.load(std::memory_order_acquire);
    const Timestamp mine = applied_watermark_.load(std::memory_order_acquire);
    return leader > mine ? leader - mine : 0;
  }

  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_acquire);
  }
  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_acquire);
  }
  uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_acquire);
  }

  /// Leader WAL position applied through (the durable resume token).
  WalPosition applied_position() {
    std::lock_guard<std::mutex> lock(write_mu_);
    return durable_->replicated_through();
  }

  /// Sticky first unrecoverable error (diverged install, rejected
  /// apply, leader refusal); OK while healthy. A fatal error stops
  /// the apply loop — the replica keeps serving its last state.
  Status last_error() {
    std::lock_guard<std::mutex> lock(error_mu_);
    return last_error_;
  }

  Durable* durable() { return durable_.get(); }

  /// The mutex every live-engine touch must hold (see the header
  /// comment).
  std::mutex* write_mu() { return &write_mu_; }

 private:
  using Clock = std::chrono::steady_clock;

  ReplicaEngine(std::unique_ptr<Durable> durable,
                const ReplicaOptions& options)
      : durable_(std::move(durable)),
        options_(options),
        backoff_rng_(options.backoff_seed != 0
                         ? options.backoff_seed
                         : static_cast<uint64_t>(
                               Clock::now().time_since_epoch().count()) ^
                               reinterpret_cast<uintptr_t>(this)) {
    transport_ =
        options_.transport ? options_.transport : ReplTransport::Default();
    applied_watermark_.store(durable_->engine().Watermark(),
                             std::memory_order_release);
  }

  void SetError(const Status& st) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (last_error_.ok()) last_error_ = st;
  }

  // Sleeps the current backoff — jittered downward so a fleet of
  // followers doesn't re-dial in lockstep — interruptible by Stop,
  // then doubles the base up to the cap.
  void Backoff(int* delay_ms) {
    const int sleep_ms =
        JitteredDelay(*delay_ms, options_.backoff_jitter, &backoff_rng_);
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms), [this] {
      return stop_.load(std::memory_order_acquire);
    });
    *delay_ms = std::min(*delay_ms * 2, options_.backoff_max_ms);
  }

  bool Stopping() const { return stop_.load(std::memory_order_acquire); }

  void ApplyLoop() {
    BURSTHIST_COUNTER(m_reconnects, obs::kReplReconnectsTotal);
    BURSTHIST_GAUGE(m_connected, obs::kReplConnected);
    int backoff_ms = options_.backoff_initial_ms;
    bool first_attempt = true;
    while (!Stopping() && !fatal_) {
      if (!first_attempt) {
        reconnects_.fetch_add(1, std::memory_order_acq_rel);
        m_reconnects.Inc();
        Backoff(&backoff_ms);
        if (Stopping()) break;
      }
      first_attempt = false;
      auto conn_or =
          transport_->Connect(options_.leader_host, options_.leader_port);
      if (!conn_or.ok()) continue;
      std::unique_ptr<ReplConn> conn = std::move(conn_or).value();

      HelloFrame hello;
      {
        std::lock_guard<std::mutex> lock(write_mu_);
        hello.resume = durable_->replicated_through();
      }
      hello.have_state = hello.resume != WalPosition{};
      const std::vector<uint8_t> wire = EncodeHello(hello);
      if (!conn->Send(wire.data(), wire.size()).ok()) continue;

      connected_.store(true, std::memory_order_release);
      m_connected.Set(1.0);
      backoff_ms = options_.backoff_initial_ms;  // link is up: reset
      Pump(conn.get());
      conn->Close();
      connected_.store(false, std::memory_order_release);
      m_connected.Set(0.0);
    }
    connected_.store(false, std::memory_order_release);
    m_connected.Set(0.0);
  }

  // Receives and applies frames until the connection breaks, goes
  // silent past the deadline, delivers garbage, or Stop()/a fatal
  // error ends the loop.
  void Pump(ReplConn* conn) {
    BURSTHIST_COUNTER(m_rejected, obs::kReplFramesRejectedTotal);
    FrameReader reader;
    auto last_frame = Clock::now();
    uint8_t chunk[16384];
    while (!Stopping() && !fatal_) {
      auto n_or = conn->Recv(chunk, sizeof chunk, options_.recv_timeout_ms);
      if (!n_or.ok()) return;  // broken/closed: reconnect
      if (n_or.value() == 0) {
        if (Clock::now() - last_frame >
            std::chrono::milliseconds(options_.dead_after_ms)) {
          return;  // silent too long: presume dead, re-dial
        }
        continue;
      }
      reader.Feed(chunk, n_or.value());
      ReplFrame frame;
      for (;;) {
        auto next = reader.Next(&frame);
        if (!next.ok()) {
          // Garbled envelope: reject the connection, not the replica.
          frames_rejected_.fetch_add(1, std::memory_order_acq_rel);
          m_rejected.Inc();
          return;
        }
        if (!next.value()) break;
        last_frame = Clock::now();
        if (!ApplyFrame(frame)) return;
      }
    }
  }

  // Returns false when the connection must drop (decode failure or
  // leader refusal); sets fatal_ for unrecoverable apply errors.
  bool ApplyFrame(const ReplFrame& frame) {
    BURSTHIST_COUNTER(m_applied, obs::kReplAppliedRecordsTotal);
    BURSTHIST_GAUGE(m_lag, obs::kReplLag);
    switch (frame.type) {
      case ReplFrameType::kRecord: {
        RecordFrame rec;
        if (!DecodeRecord(frame.payload, &rec).ok()) return RejectFrame();
        std::lock_guard<std::mutex> lock(write_mu_);
        if (!(durable_->replicated_through() < rec.end)) return true;  // dup
        const Status st =
            durable_->AppendReplicated(rec.e, rec.t, rec.count, rec.end);
        if (!st.ok()) {
          // The leader accepted this record against the same options
          // and order; a local rejection means divergence, and
          // applying anything further would compound it.
          fatal_ = true;
          SetError(st);
          return false;
        }
        applied_records_.fetch_add(1, std::memory_order_acq_rel);
        m_applied.Inc();
        applied_watermark_.store(durable_->engine().Watermark(),
                                 std::memory_order_release);
        m_lag.Set(static_cast<double>(lag()));
        return true;
      }
      case ReplFrameType::kSnapshot: {
        SnapshotFrame snap;
        if (!DecodeSnapshot(frame.payload, &snap).ok()) return RejectFrame();
        std::lock_guard<std::mutex> lock(write_mu_);
        if (!(durable_->replicated_through() < snap.covered)) return true;
        const Status st =
            durable_->InstallReplicatedState(snap.blob, snap.covered);
        if (!st.ok()) {
          // Disk and memory may now disagree (see
          // InstallReplicatedState); continuing would serve a state
          // no restart can reproduce.
          fatal_ = true;
          SetError(st);
          return false;
        }
        applied_watermark_.store(durable_->engine().Watermark(),
                                 std::memory_order_release);
        m_lag.Set(static_cast<double>(lag()));
        return true;
      }
      case ReplFrameType::kHeartbeat: {
        HeartbeatFrame hb;
        if (!DecodeHeartbeat(frame.payload, &hb).ok()) return RejectFrame();
        leader_watermark_.store(hb.watermark, std::memory_order_release);
        m_lag.Set(static_cast<double>(lag()));
        return true;
      }
      case ReplFrameType::kError: {
        ErrorFrame err;
        if (DecodeError(frame.payload, &err).ok()) {
          SetError(Status(static_cast<StatusCode>(err.code),
                          "leader refused: " + err.message));
        }
        return false;  // reconnect (with backoff); the refusal may
                       // be transient (e.g. mid-checkpoint)
      }
      case ReplFrameType::kHello:
        return RejectFrame();  // nonsense from a leader
    }
    return RejectFrame();
  }

  bool RejectFrame() {
    BURSTHIST_COUNTER(m_rejected, obs::kReplFramesRejectedTotal);
    frames_rejected_.fetch_add(1, std::memory_order_acq_rel);
    m_rejected.Inc();
    return false;
  }

  std::unique_ptr<Durable> durable_;
  ReplicaOptions options_;
  Rng backoff_rng_;  // only the apply thread touches it
  ReplTransport* transport_ = nullptr;
  std::mutex write_mu_;  // every live-engine touch; shared with serving

  std::thread apply_thread_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::atomic<bool> follower_{true};
  std::atomic<bool> connected_{false};
  std::atomic<bool> fatal_{false};
  std::atomic<Timestamp> leader_watermark_{0};
  std::atomic<Timestamp> applied_watermark_{0};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::mutex error_mu_;
  Status last_error_;
};

}  // namespace repl
}  // namespace bursthist

#endif  // BURSTHIST_REPLICATION_REPLICA_ENGINE_H_
