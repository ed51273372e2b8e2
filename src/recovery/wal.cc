#include "recovery/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "fault/crashpoint.h"
#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/serialize.h"

namespace bursthist {

namespace {

constexpr uint32_t kWalMagic = 0x4257414c;  // "BWAL"
constexpr uint32_t kWalVersion = 1;
// u32 payload_len | u32 masked_crc | u8 type.
constexpr uint64_t kFrameHeader = 9;

uint32_t FrameCrc(const uint8_t* type_and_payload, size_t n) {
  return Crc32cMask(Crc32c(type_and_payload, n));
}

}  // namespace

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

bool ParseWalSegmentName(const std::string& name, uint64_t* seq) {
  unsigned long long parsed = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "wal-%8llu.lo%c", &parsed, &tail) != 2 ||
      tail != 'g' || name.size() != std::strlen("wal-00000000.log")) {
    return false;
  }
  *seq = parsed;
  return true;
}

Result<std::vector<uint64_t>> ListWalSegments(Env* env,
                                              const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> seqs;
  for (const auto& name : names.value()) {
    uint64_t seq = 0;
    if (ParseWalSegmentName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env,
                                                   const std::string& dir,
                                                   uint64_t start_seq,
                                                   const Options& options) {
  std::unique_ptr<WalWriter> writer(new WalWriter(env, dir, options));
  BURSTHIST_RETURN_IF_ERROR(writer->OpenSegment(start_seq));
  return writer;
}

Status WalWriter::OpenSegment(uint64_t seq) {
  auto file = env_->NewWritableFile(WalSegmentPath(dir_, seq));
  if (!file.ok()) return file.status();
  file_ = std::move(file).value();
  BinaryWriter header;
  header.Put<uint32_t>(kWalMagic);
  header.Put<uint32_t>(kWalVersion);
  header.Put<uint64_t>(seq);
  BURSTHIST_RETURN_IF_ERROR(file_->Append(header.bytes()));
  BURSTHIST_CRASHPOINT("wal.segment.pre_dir_sync");
  // The segment's directory entry must itself be durable: without
  // this, power loss after a rotation can forget the new file while
  // keeping a snapshot that claims coverage past it.
  if (Status s = env_->SyncDir(dir_); !s.ok()) {
    // Whether the entry reached disk is now unknowable — the same
    // class of failure as a data fsync, handled the same way.
    poisoned_ = true;
    return Status::Unavailable("WAL directory fsync failed, read-only: " +
                               s.message());
  }
  position_ = WalPosition{seq, kWalHeaderSize};
  return Status::OK();
}

Status WalWriter::AddRecord(WalRecordType type,
                            const std::vector<uint8_t>& payload) {
  return AddRecordBatch(type, payload.data(), payload.size(), 1);
}

Status WalWriter::AddRecordBatch(WalRecordType type, const uint8_t* payloads,
                                 size_t payload_len, size_t n) {
  BURSTHIST_COUNTER(m_appends, obs::kWalAppendsTotal);
  BURSTHIST_COUNTER(m_retries, obs::kWalAppendRetriesTotal);
  BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kWalAppendLatencySeconds);
  obs::TraceSpan span(m_lat, "wal_append");
  if (n == 0) return Status::OK();
  if (poisoned_) {
    return Status::Unavailable("WAL is read-only after an fsync failure");
  }
  const uint64_t frame_size = kFrameHeader + payload_len;
  const uint64_t total_size = frame_size * n;
  if (position_.offset > kWalHeaderSize &&
      position_.offset + total_size > options_.segment_bytes) {
    BURSTHIST_RETURN_IF_ERROR(Rotate());
  }
  BinaryWriter frames;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* payload = payloads + i * payload_len;
    const size_t frame_begin = frames.size();
    frames.Put<uint32_t>(static_cast<uint32_t>(payload_len));
    frames.Put<uint32_t>(0);  // patched below: crc over type + payload
    frames.Put<uint8_t>(static_cast<uint8_t>(type));
    for (size_t b = 0; b < payload_len; ++b) frames.Put<uint8_t>(payload[b]);
    frames.Patch<uint32_t>(
        frame_begin + 4,
        FrameCrc(frames.data() + frame_begin + 8, 1 + payload_len));
  }
  BURSTHIST_CRASHPOINT("wal.append.pre_write");
  Status append = file_->Append(frames.bytes());
  for (uint32_t attempt = 1; !append.ok() && attempt <= options_.append_retries;
       ++attempt) {
    m_retries.Inc();
    if (options_.retry_backoff) options_.retry_backoff(attempt);
    // A failed append may have torn the segment tail, so the retry
    // re-appends the WHOLE batch on a clean segment. If the cleanup
    // itself fails, surface the ORIGINAL append error — it names the
    // real problem.
    if (!ReopenCleanSegment().ok()) return append;
    append = file_->Append(frames.bytes());
  }
  BURSTHIST_RETURN_IF_ERROR(append);
  BURSTHIST_CRASHPOINT("wal.append.post_write");
  position_.offset += total_size;
  if (options_.sync_every_record) {
    BURSTHIST_RETURN_IF_ERROR(Sync());
  }
  m_appends.Inc(n);
  return Status::OK();
}

Status WalWriter::Sync() {
  BURSTHIST_COUNTER(m_fsyncs, obs::kWalFsyncsTotal);
  BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kWalFsyncLatencySeconds);
  BURSTHIST_GAUGE(m_poisoned, obs::kWalPoisoned);
  if (poisoned_) {
    return Status::Unavailable("WAL is read-only after an fsync failure");
  }
  obs::TraceSpan span(m_lat, "wal_fsync");
  const Status s = file_->Sync();
  m_fsyncs.Inc();
  if (!s.ok()) {
    // Never retry a failed fsync: the kernel may already have dropped
    // the dirty pages, so a later fsync returning OK proves nothing
    // about these bytes. Poison the writer; the owner degrades to
    // read-only and recovery replays whatever actually reached disk.
    poisoned_ = true;
    m_poisoned.Set(1.0);
    return Status::Unavailable("fsync failed, WAL now read-only: " +
                               s.message());
  }
  return s;
}

Status WalWriter::Rotate() {
  BURSTHIST_COUNTER(m_rotations, obs::kWalRotationsTotal);
  BURSTHIST_LATENCY_HISTOGRAM(m_lat, obs::kWalRotationLatencySeconds);
  obs::TraceSpan span(m_lat, "wal_rotate");
  BURSTHIST_RETURN_IF_ERROR(Sync());
  BURSTHIST_RETURN_IF_ERROR(file_->Close());
  BURSTHIST_CRASHPOINT("wal.rotate.pre_open");
  BURSTHIST_RETURN_IF_ERROR(OpenSegment(position_.seq + 1));
  m_rotations.Inc();
  return Status::OK();
}

Status WalWriter::ReopenCleanSegment() {
  if (file_) (void)file_->Close();  // fd may be unusable; best-effort
  BURSTHIST_RETURN_IF_ERROR(
      env_->TruncateFile(WalSegmentPath(dir_, position_.seq),
                         position_.offset));
  return OpenSegment(position_.seq + 1);
}

Result<WalSegmentCheck> CheckWalSegment(Env* env, const std::string& dir,
                                        uint64_t seq, bool allow_torn_tail) {
  auto bytes_or = env->ReadFileBytes(WalSegmentPath(dir, seq));
  if (!bytes_or.ok()) return bytes_or.status();
  const std::vector<uint8_t>& bytes = bytes_or.value();

  WalSegmentCheck check;
  auto torn_or = [&](const char* what) -> Result<WalSegmentCheck> {
    if (allow_torn_tail) {
      check.tail_torn = true;
      return check;
    }
    return Status::Corruption(what);
  };

  if (bytes.size() < kWalHeaderSize) {
    return torn_or("short WAL header");
  }
  BinaryReader header(bytes.data(), bytes.size());
  uint32_t magic = 0, version = 0;
  uint64_t header_seq = 0;
  BURSTHIST_RETURN_IF_ERROR(header.Get(&magic));
  BURSTHIST_RETURN_IF_ERROR(header.Get(&version));
  BURSTHIST_RETURN_IF_ERROR(header.Get(&header_seq));
  if (magic != kWalMagic) return Status::Corruption("bad WAL magic");
  if (version != kWalVersion) return Status::Corruption("bad WAL version");
  if (header_seq != seq) {
    return Status::Corruption("WAL segment name/header sequence mismatch");
  }

  uint64_t off = kWalHeaderSize;
  while (off < bytes.size()) {
    const uint64_t remaining = bytes.size() - off;
    if (remaining < kFrameHeader) {
      return torn_or("trailing garbage in WAL segment");
    }
    uint32_t payload_len = 0, stored_crc = 0;
    std::memcpy(&payload_len, bytes.data() + off, sizeof(payload_len));
    std::memcpy(&stored_crc, bytes.data() + off + 4, sizeof(stored_crc));
    const uint64_t frame_size = kFrameHeader + payload_len;
    if (frame_size > remaining) {
      return torn_or("record overruns WAL segment");
    }
    const uint8_t* body = bytes.data() + off + 8;
    if (FrameCrc(body, 1 + payload_len) != stored_crc) {
      // A bad checksum on the frame touching the last byte is the torn
      // write replay also forgives; anywhere else it is corruption
      // even in the newest segment.
      if (off + frame_size == bytes.size()) {
        return torn_or("WAL record checksum mismatch in tail");
      }
      return Status::Corruption("WAL record checksum mismatch");
    }
    off += frame_size;
    ++check.records;
  }
  return check;
}

Result<WalReplayResult> ReplayWal(
    Env* env, const std::string& dir, const WalPosition& from,
    const std::function<Status(WalRecordType, const uint8_t* payload,
                               size_t len, const WalPosition& end)>& sink) {
  BURSTHIST_COUNTER(m_replayed, obs::kRecoveryReplayedRecordsTotal);
  BURSTHIST_COUNTER(m_torn, obs::kRecoveryTornTailsTotal);
  auto seqs_or = ListWalSegments(env, dir);
  if (!seqs_or.ok()) return seqs_or.status();
  const std::vector<uint64_t>& all = seqs_or.value();

  std::vector<uint64_t> seqs;
  for (uint64_t seq : all) {
    if (seq >= from.seq) seqs.push_back(seq);
  }
  // A gap left by the scrubber quarantining a segment is an explicit,
  // operator-visible hole: replay stops cleanly at the prefix before
  // it. A bare gap (file vanished without a quarantine marker) stays
  // hard corruption.
  auto quarantined = [env, &dir](uint64_t seq) {
    return env->FileExists(WalSegmentPath(dir, seq) + kQuarantineSuffix);
  };

  WalReplayResult result;
  result.end = from;
  if (seqs.empty()) return result;
  if (seqs.front() != from.seq) {
    if (quarantined(from.seq)) {
      result.stopped_at_quarantine = true;
      return result;
    }
    return Status::Corruption("WAL segment holding the replay start is gone");
  }

  for (size_t i = 0; i < seqs.size(); ++i) {
    const uint64_t seq = seqs[i];
    const bool last = i + 1 == seqs.size();
    if (i > 0 && seq != seqs[i - 1] + 1) {
      if (quarantined(seqs[i - 1] + 1)) {
        result.stopped_at_quarantine = true;
        return result;
      }
      return Status::Corruption("gap in WAL segment sequence");
    }
    auto bytes_or = env->ReadFileBytes(WalSegmentPath(dir, seq));
    if (!bytes_or.ok()) return bytes_or.status();
    const std::vector<uint8_t>& bytes = bytes_or.value();

    if (bytes.size() < kWalHeaderSize) {
      if (last) {
        // Crash while creating the segment: an expected torn tail.
        result.tail_torn = true;
        m_torn.Inc();
        return result;
      }
      return Status::Corruption("short WAL header in non-final segment");
    }
    BinaryReader header(bytes.data(), bytes.size());
    uint32_t magic = 0, version = 0;
    uint64_t header_seq = 0;
    BURSTHIST_RETURN_IF_ERROR(header.Get(&magic));
    BURSTHIST_RETURN_IF_ERROR(header.Get(&version));
    BURSTHIST_RETURN_IF_ERROR(header.Get(&header_seq));
    if (magic != kWalMagic) return Status::Corruption("bad WAL magic");
    if (version != kWalVersion) return Status::Corruption("bad WAL version");
    if (header_seq != seq) {
      return Status::Corruption("WAL segment name/header sequence mismatch");
    }

    uint64_t off = seq == from.seq ? std::max(from.offset, kWalHeaderSize)
                                   : kWalHeaderSize;
    while (off < bytes.size()) {
      const uint64_t remaining = bytes.size() - off;
      if (remaining < kFrameHeader) {
        if (last) {
          result.tail_torn = true;
          m_torn.Inc();
          return result;
        }
        return Status::Corruption("trailing garbage in non-final segment");
      }
      uint32_t payload_len = 0, stored_crc = 0;
      std::memcpy(&payload_len, bytes.data() + off, sizeof(payload_len));
      std::memcpy(&stored_crc, bytes.data() + off + 4, sizeof(stored_crc));
      const uint64_t frame_size = kFrameHeader + payload_len;
      if (frame_size > remaining) {
        if (last) {
          // A record cut off mid-write (or a length field mangled by
          // the same tear) — the expected crash remnant.
          result.tail_torn = true;
          m_torn.Inc();
          return result;
        }
        return Status::Corruption("record overruns non-final segment");
      }
      const uint8_t* body = bytes.data() + off + 8;
      const size_t body_len = 1 + payload_len;
      if (FrameCrc(body, body_len) != stored_crc) {
        if (last && off + frame_size == bytes.size()) {
          // The final record's bytes are damaged; indistinguishable
          // from a torn write, so drop it and stop cleanly.
          result.tail_torn = true;
          m_torn.Inc();
          return result;
        }
        return Status::Corruption("WAL record checksum mismatch");
      }
      BURSTHIST_RETURN_IF_ERROR(
          sink(static_cast<WalRecordType>(body[0]), body + 1, payload_len,
               WalPosition{seq, off + frame_size}));
      off += frame_size;
      m_replayed.Inc();
      ++result.records;
      result.end = WalPosition{seq, off};
    }
  }
  return result;
}

}  // namespace bursthist
