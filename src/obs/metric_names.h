// The registry's single source of truth for metric names.
//
// Every metric the library exports is declared here, once, through the
// BURSTHIST_METRIC_LIST X-macro: the entry generates the name constant
// instrumentation sites reference, the eager registration that makes
// `bursthist_cli metrics` show the full set (zeros included), and the
// table `tools/check_metrics_docs.py` diffs against the operator
// runbook (docs/OPERATIONS.md). Adding a metric anywhere else will
// fail the docs-drift CI check — add it to this list.
//
// Entry format: M(Kind, Symbol, "prometheus_name", "help text")
//   Kind   — Counter, Gauge, or Histogram (histograms use the shared
//            latency buckets, kLatencyBucketBounds in obs/metrics.h;
//            names ending in "_size_records" use power-of-two
//            record-count buckets instead).
//   Symbol — generates `obs::k<Symbol>`, the constant call sites use.

#ifndef BURSTHIST_OBS_METRIC_NAMES_H_
#define BURSTHIST_OBS_METRIC_NAMES_H_

// clang-format off
#define BURSTHIST_METRIC_LIST(M)                                              \
  /* ---- engine: ingest path ---- */                                         \
  M(Counter, EngineAppendsTotal, "bursthist_engine_appends_total",            \
    "Records accepted by BurstEngine::Append (buffered or ingested).")        \
  M(Counter, EngineAppendRejectsTotal,                                        \
    "bursthist_engine_append_rejects_total",                                  \
    "Appends refused: validation, lateness, or WAL error.")                   \
  M(Gauge, EngineReorderDepth, "bursthist_engine_reorder_depth",              \
    "Records currently held in the out-of-order re-order buffer.")            \
  M(Gauge, EngineWatermarkLag, "bursthist_engine_watermark_lag",              \
    "Watermark minus oldest buffered timestamp, in stream time units.")       \
  M(Gauge, EngineResidentBytes, "bursthist_engine_resident_bytes",            \
    "Resident bytes of the engine (index + summaries + buffers).")            \
  /* ---- engine: batch ingest path ---- */                                   \
  M(Counter, EngineBatchAppendsTotal, "bursthist_engine_batch_appends_total", \
    "AppendBatch calls (each covers one span of records).")                   \
  M(Histogram, EngineBatchSizeRecords, "bursthist_engine_batch_size_records", \
    "Records per AppendBatch call (power-of-two record-count buckets).")      \
  M(Histogram, EngineBatchAppendLatencySeconds,                               \
    "bursthist_engine_batch_append_latency_seconds",                          \
    "Latency of one whole AppendBatch call (validation to sketch update).")   \
  /* ---- PBE-1 staircase DP ---- */                                          \
  M(Histogram, Pbe1CompressLatencySeconds,                                    \
    "bursthist_pbe1_compress_latency_seconds",                                \
    "Latency of one PBE-1 buffer compression (Algorithm 1 DP pass).")         \
  /* ---- engine: query path ---- */                                          \
  M(Histogram, QueryPointLatencySeconds,                                      \
    "bursthist_query_point_latency_seconds",                                  \
    "Latency of POINT queries q(e, t, tau).")                                 \
  M(Histogram, QueryBurstyTimeLatencySeconds,                                 \
    "bursthist_query_bursty_time_latency_seconds",                            \
    "Latency of BURSTY TIME queries q(e, theta, tau).")                       \
  M(Histogram, QueryBurstyEventLatencySeconds,                                \
    "bursthist_query_bursty_event_latency_seconds",                           \
    "Latency of BURSTY EVENT queries q(t, theta, tau).")                      \
  M(Gauge, QueryBurstyEventPointQueries,                                      \
    "bursthist_query_bursty_event_point_queries",                             \
    "Point queries the last BURSTY EVENT query needed (prune quality).")      \
  M(Histogram, QueryFrequentBurstyEventLatencySeconds,                        \
    "bursthist_query_frequent_bursty_event_latency_seconds",                  \
    "Latency of frequency-filtered BURSTY EVENT queries.")                    \
  M(Histogram, QueryTopkLatencySeconds,                                       \
    "bursthist_query_topk_latency_seconds",                                   \
    "Latency of TOP-K BURSTY EVENT queries.")                                 \
  /* ---- read snapshots ---- */                                              \
  M(Counter, EngineReadSnapshotsTotal,                                        \
    "bursthist_engine_read_snapshots_total",                                  \
    "Immutable read snapshots published by AcquireSnapshot().")               \
  M(Histogram, SnapshotAcquireLatencySeconds,                                 \
    "bursthist_snapshot_acquire_latency_seconds",                             \
    "Latency of AcquireSnapshot() — ripe drain plus copy.")                   \
  M(Histogram, SnapshotSealLatencySeconds,                                    \
    "bursthist_snapshot_seal_latency_seconds",                                \
    "Latency of sealing one captured view on its first reader (drain + "      \
    "residual DP).")                                                          \
  M(Gauge, SnapshotResidentBytes, "bursthist_snapshot_resident_bytes",        \
    "Resident bytes of the most recently sealed served view, summed over "    \
    "its shards.")                                                            \
  /* ---- accuracy proxies ---- */                                            \
  M(Gauge, EffectivePointBound, "bursthist_effective_point_bound",            \
    "POINT error bound in force: eps*N + 4*cell_error, degradation "          \
    "included.")                                                              \
  M(Gauge, CmpbeEstimateSpread, "bursthist_cmpbe_estimate_spread",            \
    "Max-minus-min of per-row estimates in the latest hashed-grid "           \
    "combine (0 = rows agree).")                                              \
  M(Gauge, CmpbeMaxCellMass, "bursthist_cmpbe_max_cell_mass",                 \
    "Heaviest leaf-cell routed mass — worst-case collision mass a POINT "     \
    "answer can absorb.")                                                     \
  /* ---- recovery: WAL and snapshots ---- */                                 \
  M(Counter, WalAppendsTotal, "bursthist_wal_appends_total",                  \
    "Records durably framed into the write-ahead log.")                       \
  M(Histogram, WalAppendLatencySeconds,                                       \
    "bursthist_wal_append_latency_seconds",                                   \
    "Latency of one WAL record append (including any retries).")              \
  M(Counter, WalAppendRetriesTotal, "bursthist_wal_append_retries_total",     \
    "WAL append retries onto a fresh segment after transient IO errors.")     \
  M(Counter, WalFsyncsTotal, "bursthist_wal_fsyncs_total",                    \
    "WAL fsync calls (per-record when sync_every_record, else on "            \
    "Sync/rotation).")                                                        \
  M(Histogram, WalFsyncLatencySeconds, "bursthist_wal_fsync_latency_seconds", \
    "Latency of WAL fsync calls — stalls here block ingestion.")              \
  M(Counter, WalRotationsTotal, "bursthist_wal_rotations_total",              \
    "WAL segment rotations (fsync + fresh segment).")                         \
  M(Histogram, WalRotationLatencySeconds,                                     \
    "bursthist_wal_rotation_latency_seconds",                                 \
    "Latency of WAL segment rotation.")                                       \
  M(Gauge, WalPoisoned, "bursthist_wal_poisoned",                             \
    "1 once an fsync failure poisoned the WAL writer (read-only mode).")      \
  M(Counter, SnapshotWritesTotal, "bursthist_snapshot_writes_total",          \
    "Snapshot files atomically written by Checkpoint().")                     \
  M(Histogram, SnapshotWriteLatencySeconds,                                   \
    "bursthist_snapshot_write_latency_seconds",                               \
    "Latency of one atomic snapshot write (temp + fsync + rename).")          \
  M(Gauge, SnapshotBytes, "bursthist_snapshot_bytes",                         \
    "Size of the most recently written snapshot file, in bytes.")             \
  M(Counter, RecoveryReplayedRecordsTotal,                                    \
    "bursthist_recovery_replayed_records_total",                              \
    "WAL records replayed into an engine during recovery.")                   \
  M(Counter, RecoveryTornTailsTotal, "bursthist_recovery_torn_tails_total",   \
    "Replays that stopped at a torn/truncated WAL tail (crash remnant).")     \
  /* ---- resource governor ---- */                                           \
  M(Gauge, GovernorResidentBytes, "bursthist_governor_resident_bytes",        \
    "Total audited bytes across governed components at the last audit.")      \
  M(Gauge, GovernorSoftBudgetBytes, "bursthist_governor_soft_budget_bytes",   \
    "Configured soft byte budget (0 = unlimited).")                           \
  M(Gauge, GovernorHardBudgetBytes, "bursthist_governor_hard_budget_bytes",   \
    "Configured hard byte budget (0 = unlimited).")                           \
  M(Gauge, GovernorLevel, "bursthist_governor_level",                         \
    "Degradation ladder position: 0 Normal, 1 Shedding, 2 Saturated.")        \
  M(Counter, GovernorLevelTransitionsTotal,                                   \
    "bursthist_governor_level_transitions_total",                             \
    "Degradation-level changes observed by Enforce().")                       \
  M(Counter, GovernorShedRoundsTotal, "bursthist_governor_shed_rounds_total", \
    "Shed rounds executed (each widens bounds or compacts buffers).")         \
  M(Counter, GovernorAuditsTotal, "bursthist_governor_audits_total",          \
    "Governor audit walks (Enforce calls).")                                  \
  M(Counter, GovernorAdmissionRejectsTotal,                                   \
    "bursthist_governor_admission_rejects_total",                             \
    "Appends refused by admission control over the hard budget.")             \
  /* ---- serving front-end ---- */                                           \
  M(Counter, ServerConnectionsTotal, "bursthist_server_connections_total",    \
    "Client connections accepted by the serving front-end.")                  \
  M(Gauge, ServerActiveConnections, "bursthist_server_active_connections",    \
    "Client connections currently open.")                                     \
  M(Counter, ServerRequestsTotal, "bursthist_server_requests_total",          \
    "Protocol requests parsed and dispatched (errors included).")             \
  M(Counter, ServerRequestErrorsTotal,                                        \
    "bursthist_server_request_errors_total",                                  \
    "Requests answered with an ERR reply (parse, validation, admission).")    \
  M(Counter, ServerIngestRecordsTotal,                                        \
    "bursthist_server_ingest_records_total",                                  \
    "Records accepted over the wire into the served engine.")                 \
  M(Histogram, ServerRequestLatencySeconds,                                   \
    "bursthist_server_request_latency_seconds",                               \
    "Server-side latency of one protocol request (parse to reply).")          \
  M(Gauge, ServerSnapshotStalenessAppends,                                    \
    "bursthist_server_snapshot_staleness_appends",                            \
    "Appends accepted since the serving snapshot was last refreshed.")        \
  /* ---- replication: leader (WAL shipper) ---- */                           \
  M(Counter, ReplShippedRecordsTotal, "bursthist_repl_shipped_records_total", \
    "WAL records framed and shipped to followers (all connections).")         \
  M(Counter, ReplShippedBytesTotal, "bursthist_repl_shipped_bytes_total",     \
    "Replication wire bytes sent to followers (records + heartbeats).")       \
  M(Counter, ReplFollowerConnectionsTotal,                                    \
    "bursthist_repl_follower_connections_total",                              \
    "Follower connections accepted by the WAL shipper.")                      \
  M(Counter, ReplSnapshotsServedTotal,                                        \
    "bursthist_repl_snapshots_served_total",                                  \
    "Bootstrap snapshots served to followers (blank or pruned-behind).")      \
  /* ---- replication: follower (replica engine) ---- */                      \
  M(Counter, ReplAppliedRecordsTotal, "bursthist_repl_applied_records_total", \
    "Shipped records durably applied by the replica (duplicates skipped).")   \
  M(Counter, ReplReconnectsTotal, "bursthist_repl_reconnects_total",          \
    "Times the replica re-dialed the leader after a broken/dead link.")       \
  M(Counter, ReplFramesRejectedTotal,                                         \
    "bursthist_repl_frames_rejected_total",                                   \
    "Wire frames rejected (checksum/decode); each drops the connection.")     \
  M(Gauge, ReplConnected, "bursthist_repl_connected",                         \
    "1 while the replica holds a live connection to its leader.")             \
  M(Gauge, ReplLag, "bursthist_repl_lag",                                     \
    "Replication lag in stream-time units: leader watermark minus "           \
    "applied watermark.")                                                     \
  /* ---- sharded cluster ---- */                                             \
  M(Gauge, ShardCount, "bursthist_shard_count",                               \
    "Shards behind the serving cluster engine (1 = unsharded).")              \
  M(Gauge, ShardWatermarkSkew, "bursthist_shard_watermark_skew",              \
    "Max minus min per-shard watermark at the last publish, in "              \
    "stream-time units (hot-shard / stalled-shard indicator).")               \
  M(Counter, ShardBatchFanoutTotal, "bursthist_shard_batch_fanout_total",     \
    "Per-shard sub-batches dispatched by ClusterEngine::AppendBatch.")        \
  M(Counter, ShardQueryFanoutTotal, "bursthist_shard_query_fanout_total",     \
    "Per-shard snapshot visits issued by scatter-gather queries.")            \
  M(Histogram, ShardScatterLatencySeconds,                                    \
    "bursthist_shard_scatter_latency_seconds",                                \
    "Latency of one scatter-gather fan-out, per-shard pruning and "           \
    "candidate merge included.")                                              \
  M(Gauge, ShardMaxLag, "bursthist_shard_max_lag",                            \
    "Worst per-shard replication lag on a sharded follower, in "              \
    "stream-time units.")                                                     \
  /* ---- integrity scrubber ---- */                                          \
  M(Counter, ScrubRunsTotal, "bursthist_scrub_runs_total",                    \
    "Integrity scrub passes over a durable directory.")                       \
  M(Counter, ScrubRecordsCheckedTotal,                                        \
    "bursthist_scrub_records_checked_total",                                  \
    "WAL records whose checksums a scrub pass re-validated.")                 \
  M(Counter, ScrubCorruptFilesTotal, "bursthist_scrub_corrupt_files_total",   \
    "Corrupt WAL segments or snapshots detected by scrub passes.")            \
  M(Gauge, ScrubQuarantinedFiles, "bursthist_scrub_quarantined_files",        \
    "Quarantined (.quarantined) files present after the last scrub.")
// clang-format on

namespace bursthist {
namespace obs {

// obs::k<Symbol> — the constant instrumentation sites pass to
// BURSTHIST_COUNTER / BURSTHIST_GAUGE / BURSTHIST_LATENCY_HISTOGRAM.
#define BURSTHIST_OBS_DECLARE_NAME(Kind, Symbol, Name, Help) \
  inline constexpr char k##Symbol[] = Name;
BURSTHIST_METRIC_LIST(BURSTHIST_OBS_DECLARE_NAME)
#undef BURSTHIST_OBS_DECLARE_NAME

}  // namespace obs
}  // namespace bursthist

#endif  // BURSTHIST_OBS_METRIC_NAMES_H_
