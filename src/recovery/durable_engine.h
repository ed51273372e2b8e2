// Crash-safe persistence for BurstEngine: WAL tee + atomic snapshots
// + recovery.
//
//   DurableBurstEngine<Pbe1>::Open(env, dir, engine_options)  // recovers
//   durable->Append(e, t);        // logged, then ingested
//   durable->Checkpoint();        // snapshot + WAL trim
//   ...crash...
//   RecoverBurstEngine<Pbe1>(env, dir, engine_options)        // read-only
//
// Durability protocol
//
//  * Every accepted append is first framed into the WAL (via the
//    engine's tee, so validation happens before logging and a logged
//    record always replays cleanly), then ingested. A record is
//    therefore never in the engine without being in the log.
//  * Checkpoint() rotates the WAL to a fresh segment, snapshots the
//    live engine (atomic temp + fsync + rename) embedding that
//    position, then prunes segments and snapshots the new one
//    obsoletes. Crashing between any two steps is safe: recovery
//    just replays more WAL or uses the previous generation.
//  * Open() never appends to an existing segment (its tail may be
//    torn); it starts the next sequence number.
//
// Recovery semantics (RecoverState)
//
//  * The newest snapshot that verifies AND whose WAL tail replays
//    without mid-log corruption wins; a torn/truncated final record
//    is expected (crash remnant) and replay stops cleanly before it.
//  * A bad snapshot or corrupt mid-log record falls back to the
//    previous snapshot generation; only when every candidate fails
//    does recovery report the newest failure (kCorruption).
//  * With no snapshot at all the WAL is the full history (pruning
//    only ever follows a durable snapshot), so replay starts from an
//    empty engine. If a snapshot file exists but none verifies,
//    recovery refuses to serve the bare WAL suffix — that would
//    silently drop the pruned prefix.

#ifndef BURSTHIST_RECOVERY_DURABLE_ENGINE_H_
#define BURSTHIST_RECOVERY_DURABLE_ENGINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "fault/crashpoint.h"
#include "recovery/scrub.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"
#include "util/env.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {

/// Tuning for the durability layer.
struct DurabilityOptions {
  /// WAL segment rotation threshold.
  uint64_t wal_segment_bytes = 4ull << 20;
  /// fsync the WAL after every Append (power-loss durability per
  /// record; ~one fsync per append). Off: appends hit the file
  /// immediately but are fsynced on Checkpoint()/Sync().
  bool sync_every_append = false;
  /// Snapshot generations retained after a checkpoint (>= 1).
  size_t snapshots_to_keep = 2;
  /// Retries for transient WAL append failures (see
  /// WalWriter::Options::append_retries). fsync failures are never
  /// retried: they poison the WAL and the engine goes read-only.
  uint32_t wal_append_retries = 0;
  /// Backoff hook invoked before each append retry.
  std::function<void(uint32_t attempt)> wal_retry_backoff;
};

namespace recovery_internal {

/// Fixed wire size of a WalRecordType::kEvent payload:
/// u32 event | i64 time | u64 count.
constexpr size_t kEventPayloadBytes = 20;
/// Fixed wire size of a WalRecordType::kReplicated payload: the leader
/// position (u64 seq | u64 offset), then the event payload.
constexpr size_t kReplicatedPayloadBytes = 16 + kEventPayloadBytes;

inline std::vector<uint8_t> EncodeEventPayload(EventId e, Timestamp t,
                                               Count count) {
  BinaryWriter w;
  w.Put<uint32_t>(e);
  w.Put<int64_t>(t);
  w.Put<uint64_t>(count);
  return w.TakeBytes();
}

inline Status DecodeEventPayload(const uint8_t* payload, size_t len,
                                 EventId* e, Timestamp* t, Count* count) {
  BinaryReader r(payload, len);
  BURSTHIST_RETURN_IF_ERROR(r.Get(e));
  BURSTHIST_RETURN_IF_ERROR(r.Get(t));
  BURSTHIST_RETURN_IF_ERROR(r.Get(count));
  if (r.remaining() != 0) {
    return Status::Corruption("oversized WAL event payload");
  }
  return Status::OK();
}

inline Status DecodeReplicatedPayload(const uint8_t* payload, size_t len,
                                      WalPosition* source, EventId* e,
                                      Timestamp* t, Count* count) {
  BinaryReader r(payload, len);
  BURSTHIST_RETURN_IF_ERROR(r.Get(&source->seq));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&source->offset));
  BURSTHIST_RETURN_IF_ERROR(r.Get(e));
  BURSTHIST_RETURN_IF_ERROR(r.Get(t));
  BURSTHIST_RETURN_IF_ERROR(r.Get(count));
  if (r.remaining() != 0) {
    return Status::Corruption("oversized WAL replicated payload");
  }
  return Status::OK();
}

/// Magic for the replica-metadata trailer a checkpoint appends after
/// the engine blob inside the snapshot: u32 "RPLM" | u64 source_seq |
/// u64 source_offset.
constexpr uint32_t kReplicaMetaMagic = 0x4d4c5052;  // "RPLM"

inline void AppendReplicaMeta(BinaryWriter* w, const WalPosition& source) {
  w->Put<uint32_t>(kReplicaMetaMagic);
  w->Put<uint64_t>(source.seq);
  w->Put<uint64_t>(source.offset);
}

/// Reads the trailer from the bytes an engine Deserialize left
/// behind; a blob without one is Corruption.
inline Status ReadReplicaMeta(BinaryReader* r, WalPosition* source) {
  uint32_t magic = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
  if (magic != kReplicaMetaMagic) {
    return Status::Corruption("bad snapshot replica-metadata magic");
  }
  BURSTHIST_RETURN_IF_ERROR(r->Get(&source->seq));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&source->offset));
  if (r->remaining() != 0) {
    return Status::Corruption("trailing bytes after snapshot replica meta");
  }
  return Status::OK();
}

/// A recovered engine plus where the log ended.
template <typename PbeT>
struct RecoveredState {
  BurstEngine<PbeT> engine;
  /// End of the last applied WAL record; the next writer segment is
  /// wal_end.seq + 1.
  WalPosition wal_end;
  /// Newest snapshot generation on disk (0 = none).
  uint64_t latest_generation = 0;
  /// LEADER WAL position this state has applied through, recovered
  /// from the snapshot trailer plus any replayed kReplicated records.
  /// {0, 0} when the directory never acted as a follower.
  WalPosition replicated_through;
  /// Replay discarded a torn tail after wal_end (crash remnant). The
  /// torn bytes live in segment wal_end.seq; a writer must dispose of
  /// them before the NEXT recovery, which would see that segment as
  /// non-final and call the same tail corruption.
  bool wal_tail_torn = false;
  /// Replay stopped at a scrubber-quarantined segment: records past
  /// the hole exist on disk but were not applied.
  bool stopped_at_quarantine = false;
};

/// Loads one snapshot generation (or the empty baseline when
/// `generation` == 0) and replays the WAL tail it does not cover.
template <typename PbeT>
Result<RecoveredState<PbeT>> TryRecoverFrom(
    Env* env, const std::string& dir,
    const BurstEngineOptions<PbeT>& options, uint64_t generation) {
  RecoveredState<PbeT> state{BurstEngine<PbeT>(options), WalPosition{}, 0,
                             WalPosition{}};
  WalPosition from{0, 0};
  if (generation > 0) {
    auto snap = ReadSnapshotFile(env, dir, generation);
    if (!snap.ok()) return snap.status();
    BinaryReader r(snap.value().blob);
    BURSTHIST_RETURN_IF_ERROR(state.engine.Deserialize(&r));
    BURSTHIST_RETURN_IF_ERROR(ReadReplicaMeta(&r, &state.replicated_through));
    from = snap.value().wal_position;
  } else {
    // Empty baseline: the log is the whole history; start at the
    // earliest segment present (1 unless the directory is empty).
    auto seqs = ListWalSegments(env, dir);
    if (!seqs.ok()) return seqs.status();
    if (!seqs.value().empty()) from = WalPosition{seqs.value().front(), 0};
  }
  auto& engine = state.engine;
  auto& replicated_through = state.replicated_through;
  auto replay = ReplayWal(
      env, dir, from,
      [&engine, &replicated_through](WalRecordType type,
                                     const uint8_t* payload, size_t len,
                                     const WalPosition&) {
        EventId e = 0;
        Timestamp t = 0;
        Count count = 0;
        if (type == WalRecordType::kEvent) {
          BURSTHIST_RETURN_IF_ERROR(DecodeEventPayload(payload, len, &e, &t,
                                                       &count));
        } else if (type == WalRecordType::kReplicated) {
          WalPosition source;
          BURSTHIST_RETURN_IF_ERROR(
              DecodeReplicatedPayload(payload, len, &source, &e, &t, &count));
          if (replicated_through < source) replicated_through = source;
        } else {
          return Status::Corruption("unknown WAL record type");
        }
        Status st = engine.Append(e, t, count);
        if (!st.ok()) {
          // Only validated records reach the log, so a rejected
          // replay means the state it was validated against is gone.
          return Status::Corruption("WAL replay rejected: " + st.ToString());
        }
        return Status::OK();
      });
  if (!replay.ok()) return replay.status();
  state.wal_end = replay.value().end;
  state.wal_tail_torn = replay.value().tail_torn;
  state.stopped_at_quarantine = replay.value().stopped_at_quarantine;
  return state;
}

/// Recovery core shared by Open() and RecoverBurstEngine(): newest
/// valid snapshot generation first, older generations on failure,
/// empty baseline only when no snapshot file exists at all.
template <typename PbeT>
Result<RecoveredState<PbeT>> RecoverState(
    Env* env, const std::string& dir,
    const BurstEngineOptions<PbeT>& options) {
  auto gens_or = ListSnapshots(env, dir);
  if (!gens_or.ok()) return gens_or.status();
  const std::vector<uint64_t>& gens = gens_or.value();

  Status first_failure = Status::OK();
  for (uint64_t gen : gens) {
    auto state = TryRecoverFrom<PbeT>(env, dir, options, gen);
    if (state.ok()) {
      state.value().latest_generation = gens.front();
      return state;
    }
    if (first_failure.ok()) first_failure = state.status();
  }
  if (!gens.empty()) {
    // Every snapshot generation failed; the WAL alone is a suffix of
    // history (earlier segments were pruned under those snapshots).
    return Status::Corruption("all snapshot generations unusable: " +
                              first_failure.ToString());
  }
  return TryRecoverFrom<PbeT>(env, dir, options, 0);
}

}  // namespace recovery_internal

/// Read-only crash recovery: reconstructs the engine a
/// DurableBurstEngine would resume from, without opening the
/// directory for writing.
template <typename PbeT>
Result<BurstEngine<PbeT>> RecoverBurstEngine(
    Env* env, const std::string& dir,
    const BurstEngineOptions<PbeT>& options) {
  auto state = recovery_internal::RecoverState<PbeT>(env, dir, options);
  if (!state.ok()) return state.status();
  return std::move(state).value().engine;
}

/// A BurstEngine whose appends survive crashes: every record is teed
/// into a checksummed WAL before ingestion, and Checkpoint() persists
/// the whole engine atomically.
template <typename PbeT>
class DurableBurstEngine {
 public:
  using EngineOptions = BurstEngineOptions<PbeT>;
  /// The immutable query-view type AcquireSnapshot() returns — part
  /// of the duck type the serving layer (server/ingest_server.h) is
  /// templated on, alongside the delegating accessors below (a
  /// sharded ClusterEngine implements the same surface).
  using Snapshot = ReadSnapshot<PbeT>;

  /// Recovers (or initializes) `dir` and opens it for appending.
  static Result<std::unique_ptr<DurableBurstEngine<PbeT>>> Open(
      Env* env, const std::string& dir, const EngineOptions& options,
      const DurabilityOptions& durability = DurabilityOptions()) {
    BURSTHIST_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
    auto state_or = recovery_internal::RecoverState<PbeT>(env, dir, options);
    if (!state_or.ok()) return state_or.status();
    recovery_internal::RecoveredState<PbeT> state =
        std::move(state_or).value();

    // Dispose of the crash remnants recovery skipped over, so the
    // NEXT recovery never re-encounters them as mid-log corruption:
    //  * segments past wal_end.seq hold nothing recovery applied —
    //    they can only be empty rotation leftovers (a crash between
    //    opening a fresh segment and writing to it) or, when the tail
    //    was torn, do not exist at all — delete them;
    //  * a torn tail inside segment wal_end.seq would read as hard
    //    corruption once a later segment exists (the segment stops
    //    being final) — truncate it back to the last good record.
    // When replay stopped at a quarantined hole, leave everything in
    // place: the operator may restore the quarantined segment, and the
    // files past it are real history, not remnants.
    if (!state.stopped_at_quarantine) {
      auto seqs = ListWalSegments(env, dir);
      if (!seqs.ok()) return seqs.status();
      for (uint64_t seq : seqs.value()) {
        if (seq > state.wal_end.seq) {
          BURSTHIST_RETURN_IF_ERROR(
              env->DeleteFile(WalSegmentPath(dir, seq)));
        }
      }
      if (state.wal_tail_torn &&
          env->FileExists(WalSegmentPath(dir, state.wal_end.seq))) {
        BURSTHIST_RETURN_IF_ERROR(env->TruncateFile(
            WalSegmentPath(dir, state.wal_end.seq), state.wal_end.offset));
      }
    }

    WalWriter::Options wal_options;
    wal_options.segment_bytes = durability.wal_segment_bytes;
    wal_options.sync_every_record = durability.sync_every_append;
    wal_options.append_retries = durability.wal_append_retries;
    wal_options.retry_backoff = durability.wal_retry_backoff;
    // Never append to a possibly-torn tail: start the next segment.
    auto seqs = ListWalSegments(env, dir);
    if (!seqs.ok()) return seqs.status();
    const uint64_t next_seq =
        seqs.value().empty() ? 1 : seqs.value().back() + 1;
    auto wal = WalWriter::Open(env, dir, next_seq, wal_options);
    if (!wal.ok()) return wal.status();

    std::unique_ptr<DurableBurstEngine<PbeT>> out(
        new DurableBurstEngine(env, dir, options, durability,
                               std::move(state.engine),
                               std::move(wal).value()));
    out->generation_ = state.latest_generation;
    out->replicated_through_ = state.replicated_through;
    if (state.stopped_at_quarantine) {
      // Writes would land in segments PAST the quarantined hole, where
      // the next replay could never reach them. Re-anchor immediately:
      // a fresh snapshot covering the recovered prefix makes the new
      // segment the replay start, and the hole drops out of the live
      // history (the quarantined file stays on disk for forensics).
      BURSTHIST_RETURN_IF_ERROR(out->Checkpoint());
    }
    return out;
  }

  /// Logs and ingests one record. The WAL write happens after
  /// validation and before ingestion; on a log failure (e.g. disk
  /// full) the record is not ingested and the error is returned.
  Status Append(EventId e, Timestamp t, Count count = 1) {
    return engine_.Append(e, t, count);
  }

  /// Logs and ingests a batch of records in one shot (see
  /// BurstEngine::AppendBatch): one WAL write and at most one fsync
  /// cover the whole batch via the batch tee. `applied` reports the
  /// deterministic prefix that was logged AND ingested; on a WAL
  /// failure nothing was, so *applied == 0.
  Status AppendBatch(std::span<const WeightedRecord> records,
                     size_t* applied = nullptr) {
    return engine_.AppendBatch(records, applied);
  }

  /// Logs and ingests one record received over replication. The
  /// leader position just past the shipped record rides in the SAME
  /// WAL frame as the event (WalRecordType::kReplicated), so a crash
  /// can never separate "applied the record" from "advanced the
  /// resume token". On success replicated_through() == source.
  Status AppendReplicated(EventId e, Timestamp t, Count count,
                          const WalPosition& source) {
    pending_source_ = &source;
    Status st = engine_.Append(e, t, count);
    pending_source_ = nullptr;
    if (st.ok()) {
      // Past this point the record is logged AND ingested; a crash
      // here tests that the in-frame position stamp (not the volatile
      // watermark below) is what recovery trusts.
      BURSTHIST_CRASHPOINT("repl.apply.post_record");
      replicated_through_ = source;
    }
    return st;
  }

  /// LEADER WAL position applied through ({0, 0} if never a
  /// follower): the resume token to present when (re)connecting.
  const WalPosition& replicated_through() const { return replicated_through_; }

  /// Replaces the engine wholesale with a leader snapshot blob whose
  /// coverage ends at `source` (follower bootstrap: local history is
  /// behind the leader's pruning horizon, so it cannot be caught up
  /// record-by-record). Checkpoints immediately — the install is only
  /// durable once the local snapshot + fresh WAL segment land, and
  /// stale local WAL records must never replay on top of the new
  /// state. On failure the in-memory engine no longer matches disk;
  /// the caller must discard this object (reopen recovers the
  /// pre-install state).
  Status InstallReplicatedState(const std::vector<uint8_t>& blob,
                                const WalPosition& source) {
    if (read_only()) {
      return Status::Unavailable("engine is read-only after fsync failure");
    }
    BurstEngine<PbeT> fresh(options_);
    BinaryReader r(blob);
    BURSTHIST_RETURN_IF_ERROR(fresh.Deserialize(&r));
    engine_ = std::move(fresh);
    InstallTee();
    replicated_through_ = source;
    BURSTHIST_CRASHPOINT("repl.install.pre_checkpoint");
    return Checkpoint();
  }

  /// fsyncs the WAL up to the last accepted Append. A failed fsync
  /// permanently poisons the WAL (see WalWriter::Sync); the engine is
  /// read-only from then on — queries keep working, appends and
  /// checkpoints return Unavailable.
  Status Sync() { return wal_->Sync(); }

  /// True once an fsync failure put the engine in read-only degraded
  /// mode. Recover by restarting: Open() replays what reached disk.
  bool read_only() const { return wal_->poisoned(); }

  /// Atomically persists the current engine state and trims the WAL
  /// and old snapshots. On failure the previous generation remains
  /// authoritative and the engine stays usable.
  Status Checkpoint() {
    if (read_only()) {
      // A checkpoint claims "WAL covered through this position" —
      // unknowable once an fsync failed.
      return Status::Unavailable("engine is read-only after fsync failure");
    }
    BURSTHIST_CRASHPOINT("checkpoint.pre_rotate");
    BURSTHIST_RETURN_IF_ERROR(wal_->Rotate());
    const WalPosition covered = wal_->position();
    BURSTHIST_CRASHPOINT("checkpoint.mid");
    BinaryWriter w;
    engine_.Serialize(&w);
    recovery_internal::AppendReplicaMeta(&w, replicated_through_);
    BURSTHIST_RETURN_IF_ERROR(
        WriteSnapshotFile(env_, dir_, generation_ + 1, covered, w.bytes()));
    BURSTHIST_CRASHPOINT("checkpoint.post_snapshot");
    ++generation_;
    PruneObsoleteFiles();
    return Status::OK();
  }

  /// Walks every WAL segment and snapshot in the directory,
  /// re-validating all checksums, and (by default) quarantines corrupt
  /// files by renaming them aside — see recovery/scrub.h. Safe to run
  /// against the live engine: the writer's current segment is skipped
  /// (its tail is legitimately in flight).
  Result<ScrubReport> Scrub(const ScrubOptions& opts = ScrubOptions()) {
    ScrubOptions o = opts;
    o.skip_wal_seq = wal_->position().seq;
    return ScrubDurableDir(env_, dir_, o);
  }

  /// The recovered/live engine. Queries go straight through; do not
  /// call Append on it directly if you want the return-status of the
  /// WAL tee surfaced (use DurableBurstEngine::Append — the tee runs
  /// either way).
  BurstEngine<PbeT>& engine() { return engine_; }
  const BurstEngine<PbeT>& engine() const { return engine_; }

  /// End of the last durable WAL record.
  const WalPosition& wal_position() const { return wal_->position(); }

  /// Newest snapshot generation (0 before the first checkpoint).
  uint64_t generation() const { return generation_; }

  // Delegating accessors completing the serving duck type (see
  // `Snapshot` above): a templated serving layer talks only to this
  // surface, never to engine() directly, so a sharded cluster facade
  // can slot in behind the same code.
  std::shared_ptr<const ReadSnapshot<PbeT>> AcquireSnapshot(
      uint64_t sequence = 0) {
    return engine_.AcquireSnapshot(sequence);
  }
  void PublishMetrics() const { engine_.PublishMetrics(); }
  EventId universe_size() const { return engine_.universe_size(); }
  Count TotalCount() const { return engine_.TotalCount(); }
  Count BufferedCount() const { return engine_.BufferedCount(); }
  Timestamp Watermark() const { return engine_.Watermark(); }

 private:
  DurableBurstEngine(Env* env, std::string dir, const EngineOptions& options,
                     const DurabilityOptions& durability,
                     BurstEngine<PbeT> engine,
                     std::unique_ptr<WalWriter> wal)
      : env_(env),
        dir_(std::move(dir)),
        options_(options),
        durability_(durability),
        engine_(std::move(engine)),
        wal_(std::move(wal)) {
    InstallTee();
  }

  // The WAL tee: every span the engine is about to ingest is framed
  // into the log in one write (≤ 1 fsync) before ingestion. A
  // replicated append (pending_source_ set; replication applies record
  // by record) carries the leader position inside its frame.
  void InstallTee() {
    engine_.set_batch_append_observer(
        [this](std::span<const WeightedRecord> records) {
          const WalPosition* source = pending_source_;
          BinaryWriter w;
          for (const WeightedRecord& r : records) {
            if (source != nullptr) {
              w.Put<uint64_t>(source->seq);
              w.Put<uint64_t>(source->offset);
            }
            w.Put<uint32_t>(r.id);
            w.Put<int64_t>(r.time);
            w.Put<uint64_t>(r.count);
          }
          if (source != nullptr) {
            return wal_->AddRecordBatch(
                WalRecordType::kReplicated, w.data(),
                recovery_internal::kReplicatedPayloadBytes, records.size());
          }
          return wal_->AddRecordBatch(WalRecordType::kEvent, w.data(),
                                      recovery_internal::kEventPayloadBytes,
                                      records.size());
        });
  }

  // Best-effort removal of files the retained snapshots obsolete
  // (failures leave garbage that recovery ignores; re-tried at the
  // next checkpoint). WAL segments are kept back to the coverage of
  // the OLDEST retained snapshot — not just the newest — so that
  // falling back a generation during recovery still finds the log
  // tail it needs to replay.
  void PruneObsoleteFiles() {
    const size_t keep =
        durability_.snapshots_to_keep < 1 ? 1 : durability_.snapshots_to_keep;
    auto gens = ListSnapshots(env_, dir_);
    if (!gens.ok()) return;
    for (size_t i = keep; i < gens.value().size(); ++i) {
      env_->DeleteFile(SnapshotPath(dir_, gens.value()[i]));
    }
    // Oldest retained generation's coverage bounds WAL retention. An
    // unreadable snapshot keeps everything (conservative: extra
    // garbage, never a lost tail).
    uint64_t min_covered_seq = wal_->position().seq;
    const size_t retained = std::min(keep, gens.value().size());
    for (size_t i = 0; i < retained; ++i) {
      auto snap = ReadSnapshotFile(env_, dir_, gens.value()[i]);
      if (!snap.ok()) return;
      if (snap.value().wal_position.seq < min_covered_seq) {
        min_covered_seq = snap.value().wal_position.seq;
      }
    }
    auto seqs = ListWalSegments(env_, dir_);
    if (seqs.ok()) {
      for (uint64_t seq : seqs.value()) {
        if (seq < min_covered_seq) env_->DeleteFile(WalSegmentPath(dir_, seq));
      }
    }
    // A crash mid-write can leave a stale temp file behind.
    auto names = env_->ListDir(dir_);
    if (names.ok()) {
      for (const auto& name : names.value()) {
        if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
          env_->DeleteFile(dir_ + "/" + name);
        }
      }
    }
  }

  Env* env_;
  std::string dir_;
  EngineOptions options_;
  DurabilityOptions durability_;
  BurstEngine<PbeT> engine_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t generation_ = 0;
  WalPosition replicated_through_;
  const WalPosition* pending_source_ = nullptr;
};

/// The paper's two configurations, durable.
using DurableBurstEngine1 = DurableBurstEngine<Pbe1>;
using DurableBurstEngine2 = DurableBurstEngine<Pbe2>;

}  // namespace bursthist

#endif  // BURSTHIST_RECOVERY_DURABLE_ENGINE_H_
