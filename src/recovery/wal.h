// Write-ahead log with length-framed, CRC32C-checksummed records and
// segment rotation.
//
// On-disk layout (all integers little-endian):
//
//   wal-<seq>.log :=
//     u32 magic "BWAL" | u32 version = 1 | u64 seq       (16-byte header)
//     record*
//
//   record :=
//     u32 payload_len | u32 masked_crc | u8 type | payload[payload_len]
//
// The CRC covers the type byte and the payload, and is stored masked
// (util/crc32c.h) because WAL bytes can themselves end up inside
// checksummed snapshot-covered state.
//
// Reading distinguishes the two corruption classes recovery treats
// differently:
//
//  * A record that runs past the end of the LAST segment, or whose
//    checksum fails on the frame that touches the last byte of the
//    last segment, is a torn/truncated tail — the expected remnant of
//    a crash mid-write. Replay stops cleanly at the last valid prefix
//    (`tail_torn = true`).
//  * Anything else — a checksum mismatch with more log after it, a
//    short or garbled non-final segment, a bad header — is genuine
//    corruption and fails with Status::Corruption, letting recovery
//    fall back to an older snapshot generation.

#ifndef BURSTHIST_RECOVERY_WAL_H_
#define BURSTHIST_RECOVERY_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/status.h"

namespace bursthist {

/// A durable position in the log: byte `offset` within segment `seq`.
struct WalPosition {
  uint64_t seq = 0;
  uint64_t offset = 0;

  bool operator==(const WalPosition& o) const {
    return seq == o.seq && offset == o.offset;
  }
  bool operator!=(const WalPosition& o) const { return !(*this == o); }
  /// Log order: segment sequence first, byte offset within it second.
  bool operator<(const WalPosition& o) const {
    return seq != o.seq ? seq < o.seq : offset < o.offset;
  }
};

/// Record types multiplexed through the log.
enum class WalRecordType : uint8_t {
  /// One engine append: u32 event | i64 time | u64 count (20 bytes).
  kEvent = 1,
  /// One append received over replication, stamped with the LEADER WAL
  /// position just past the shipped record:
  ///   u64 source_seq | u64 source_offset | u32 event | i64 time |
  ///   u64 count (36 bytes).
  /// The stamp travels in the same CRC frame as the event, so a
  /// follower's applied-through position can never diverge from its
  /// applied records across a crash — replay recovers both or
  /// neither.
  kReplicated = 2,
};

/// Size of a segment header in bytes.
constexpr uint64_t kWalHeaderSize = 16;

/// Suffix the integrity scrubber appends (by rename) to a corrupt WAL
/// segment or snapshot it quarantines (see recovery/scrub.h). Replay
/// treats a quarantined segment as the end of usable history: it
/// stops at the last contiguous good prefix and NEVER skips over the
/// hole into later segments.
inline constexpr char kQuarantineSuffix[] = ".quarantined";

/// Builds "<dir>/wal-<seq 8 digits>.log".
std::string WalSegmentPath(const std::string& dir, uint64_t seq);

/// Parses a segment sequence number out of a file name; returns false
/// for non-WAL names.
bool ParseWalSegmentName(const std::string& name, uint64_t* seq);

/// Sorted (ascending) sequence numbers of the WAL segments in `dir`.
Result<std::vector<uint64_t>> ListWalSegments(Env* env,
                                              const std::string& dir);

/// Appends checksummed records, rotating to a fresh segment when the
/// current one exceeds `segment_bytes`.
class WalWriter {
 public:
  struct Options {
    /// Rotation threshold; a segment always accepts at least one
    /// record regardless of size.
    uint64_t segment_bytes = 4ull << 20;
    /// fsync after every record (durability against power loss at the
    /// cost of one fsync per append). Off: records are written
    /// immediately (no user-space buffering) but fsynced only on
    /// Sync()/rotation.
    bool sync_every_record = false;
    /// Retries for a failed record APPEND (transient IO errors:
    /// ENOSPC that clears, a flaky device). Each retry abandons the
    /// possibly-torn segment — close, truncate back to the last
    /// durable record boundary, open a fresh segment — and re-appends
    /// there; an in-place retry could interleave the torn prefix with
    /// the retried bytes. 0 = fail fast (the legacy behavior).
    ///
    /// fsync failures are NEVER retried (see Sync()): after a failed
    /// fsync the kernel may have discarded the dirty pages, so a later
    /// fsync success proves nothing about the earlier bytes. The
    /// writer poisons itself read-only instead.
    uint32_t append_retries = 0;
    /// Called before each append retry with the 1-based attempt
    /// number; inject a sleep/backoff here. May be empty.
    std::function<void(uint32_t attempt)> retry_backoff;
  };

  /// Opens a brand-new segment `start_seq` in `dir` (which must
  /// exist). Never appends to a pre-existing segment: after a crash
  /// the tail segment may be torn, so the owner starts the next
  /// sequence number instead.
  static Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                 const std::string& dir,
                                                 uint64_t start_seq,
                                                 const Options& options);

  /// Appends `n` fixed-size same-type records as consecutive frames in
  /// ONE file write, with at most one fsync for the whole batch under
  /// sync_every_record. `payloads` holds the n payloads of
  /// `payload_len` bytes each, laid out back to back. A batch never
  /// splits across a rotation: the writer rotates up front when the
  /// batch would overflow the current non-empty segment, then the
  /// batch lands whole; each frame is the same as a one-record batch's,
  /// so replay cannot tell how records were batched. Transient append
  /// failures retry per Options::append_retries, re-appending the
  /// entire batch on a clean segment. All-or-nothing: on failure
  /// position() covers none of the frames. A poisoned writer (failed
  /// fsync) returns Unavailable.
  Status AddRecordBatch(WalRecordType type, const uint8_t* payloads,
                        size_t payload_len, size_t n);

  /// Appends one record: AddRecordBatch with n = 1.
  Status AddRecord(WalRecordType type, const std::vector<uint8_t>& payload);

  /// fsyncs the current segment. A failure permanently poisons the
  /// writer (read-only degraded mode): the bytes' durability is
  /// unknowable, so pretending a later fsync fixed it would be a lie.
  Status Sync();

  /// Closes the current segment (fsync) and opens segment seq+1. The
  /// new position is the fresh segment's header end — a snapshot taken
  /// at this position covers every record ever written before it.
  Status Rotate();

  /// End position of the last durable record.
  const WalPosition& position() const { return position_; }

  /// True once an fsync failed; every subsequent append, Sync or Rotate
  /// returns Unavailable. The owner fails over to read-only mode.
  bool poisoned() const { return poisoned_; }

 private:
  WalWriter(Env* env, std::string dir, Options options)
      : env_(env), dir_(std::move(dir)), options_(options) {}

  Status OpenSegment(uint64_t seq);

  // Abandons the current (possibly torn) segment: close it, truncate
  // the file back to position_.offset — the end of the last durable
  // record, leaving a clean non-final segment for replay — and open a
  // fresh segment at seq + 1.
  Status ReopenCleanSegment();

  Env* env_;
  std::string dir_;
  Options options_;
  std::unique_ptr<WritableFile> file_;
  WalPosition position_;
  bool poisoned_ = false;
};

/// Outcome of a successful replay.
struct WalReplayResult {
  /// End of the last applied record.
  WalPosition end;
  /// True when replay stopped at a torn/truncated tail (some bytes
  /// after `end` were discarded as a crash remnant).
  bool tail_torn = false;
  /// True when replay stopped because the next segment in sequence
  /// was quarantined by the scrubber: `end` is the last contiguous
  /// good prefix, and records in segments past the hole were NOT
  /// replayed.
  bool stopped_at_quarantine = false;
  /// Records delivered to the sink.
  uint64_t records = 0;
};

/// Outcome of a single-segment integrity check.
struct WalSegmentCheck {
  /// Intact records in the segment.
  uint64_t records = 0;
  /// Bytes after the last intact record were a torn tail (only
  /// possible when the check allowed one).
  bool tail_torn = false;
};

/// Re-validates one WAL segment end to end — header fields and every
/// frame checksum — without delivering records anywhere. With
/// `allow_torn_tail`, a truncated or garbled suffix after the last
/// intact record is reported via `tail_torn` instead of failing; that
/// is only legal for the globally-newest segment, where such a suffix
/// is the expected crash remnant. Used by the integrity scrubber
/// (recovery/scrub.h).
Result<WalSegmentCheck> CheckWalSegment(Env* env, const std::string& dir,
                                        uint64_t seq, bool allow_torn_tail);

/// Replays every intact record at or after `from`, in order, into
/// `sink`. `from.seq` segments that no longer exist (already pruned
/// and covered by a snapshot) are fine as long as no later segment
/// precedes `from`. A non-OK sink status aborts and is returned.
/// `end` is the position just past the record being delivered — the
/// resume token replication ships alongside each record.
Result<WalReplayResult> ReplayWal(
    Env* env, const std::string& dir, const WalPosition& from,
    const std::function<Status(WalRecordType, const uint8_t* payload,
                               size_t len, const WalPosition& end)>& sink);

}  // namespace bursthist

#endif  // BURSTHIST_RECOVERY_WAL_H_
