#include "replication/repl_wire.h"

#include <cstring>

#include "util/crc32c.h"
#include "util/serialize.h"

namespace bursthist {
namespace repl {

namespace {

// u32 payload_len | u32 masked_crc | u8 type — identical to the WAL's.
constexpr size_t kFrameHeader = 9;

uint32_t FrameCrc(const uint8_t* type_and_payload, size_t n) {
  return Crc32cMask(Crc32c(type_and_payload, n));
}

void PutPosition(BinaryWriter* w, const WalPosition& p) {
  w->Put<uint64_t>(p.seq);
  w->Put<uint64_t>(p.offset);
}

Status GetPosition(BinaryReader* r, WalPosition* p) {
  BURSTHIST_RETURN_IF_ERROR(r->Get(&p->seq));
  return r->Get(&p->offset);
}

Status NoTrailing(const BinaryReader& r, const char* what) {
  if (r.remaining() != 0) {
    return Status::Corruption(std::string("oversized ") + what + " frame");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(ReplFrameType type,
                                 const std::vector<uint8_t>& payload) {
  BinaryWriter frame;
  frame.Put<uint32_t>(static_cast<uint32_t>(payload.size()));
  frame.Put<uint32_t>(0);  // patched below: crc over type + payload
  frame.Put<uint8_t>(static_cast<uint8_t>(type));
  const size_t body_begin = frame.size() - 1;
  for (uint8_t b : payload) frame.Put<uint8_t>(b);
  frame.Patch<uint32_t>(
      4, FrameCrc(frame.data() + body_begin, frame.size() - body_begin));
  return frame.TakeBytes();
}

std::vector<uint8_t> EncodeHello(const HelloFrame& f) {
  BinaryWriter w;
  w.Put<uint32_t>(f.proto_version);
  w.Put<uint8_t>(f.have_state ? 1 : 0);
  PutPosition(&w, f.resume);
  return EncodeFrame(ReplFrameType::kHello, w.bytes());
}

std::vector<uint8_t> EncodeSnapshot(const SnapshotFrame& f) {
  BinaryWriter w;
  w.Put<uint64_t>(f.generation);
  PutPosition(&w, f.covered);
  for (uint8_t b : f.blob) w.Put<uint8_t>(b);
  return EncodeFrame(ReplFrameType::kSnapshot, w.bytes());
}

std::vector<uint8_t> EncodeRecord(const RecordFrame& f) {
  BinaryWriter w;
  // Position (16) + id (4) + time (8) + count (8).
  w.Reserve(36);
  PutPosition(&w, f.end);
  w.Put<uint32_t>(f.e);
  w.Put<int64_t>(f.t);
  w.Put<uint64_t>(f.count);
  return EncodeFrame(ReplFrameType::kRecord, w.bytes());
}

std::vector<uint8_t> EncodeHeartbeat(const HeartbeatFrame& f) {
  BinaryWriter w;
  PutPosition(&w, f.durable_end);
  w.Put<int64_t>(f.watermark);
  return EncodeFrame(ReplFrameType::kHeartbeat, w.bytes());
}

std::vector<uint8_t> EncodeError(const ErrorFrame& f) {
  BinaryWriter w;
  w.Put<uint32_t>(f.code);
  for (char c : f.message) w.Put<uint8_t>(static_cast<uint8_t>(c));
  return EncodeFrame(ReplFrameType::kError, w.bytes());
}

Status DecodeHello(const std::vector<uint8_t>& payload, HelloFrame* out) {
  BinaryReader r(payload);
  uint8_t have = 0;
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->proto_version));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&have));
  BURSTHIST_RETURN_IF_ERROR(GetPosition(&r, &out->resume));
  out->have_state = have != 0;
  return NoTrailing(r, "HELLO");
}

Status DecodeSnapshot(const std::vector<uint8_t>& payload,
                      SnapshotFrame* out) {
  BinaryReader r(payload);
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->generation));
  BURSTHIST_RETURN_IF_ERROR(GetPosition(&r, &out->covered));
  const size_t blob_len = r.remaining();
  out->blob.resize(blob_len);
  if (blob_len > 0) {
    std::memcpy(out->blob.data(), payload.data() + (payload.size() - blob_len),
                blob_len);
  }
  return Status::OK();
}

Status DecodeRecord(const std::vector<uint8_t>& payload, RecordFrame* out) {
  BinaryReader r(payload);
  BURSTHIST_RETURN_IF_ERROR(GetPosition(&r, &out->end));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->e));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->t));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->count));
  return NoTrailing(r, "RECORD");
}

Status DecodeHeartbeat(const std::vector<uint8_t>& payload,
                       HeartbeatFrame* out) {
  BinaryReader r(payload);
  BURSTHIST_RETURN_IF_ERROR(GetPosition(&r, &out->durable_end));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->watermark));
  return NoTrailing(r, "HEARTBEAT");
}

Status DecodeError(const std::vector<uint8_t>& payload, ErrorFrame* out) {
  BinaryReader r(payload);
  BURSTHIST_RETURN_IF_ERROR(r.Get(&out->code));
  out->message.assign(reinterpret_cast<const char*>(payload.data()) +
                          (payload.size() - r.remaining()),
                      r.remaining());
  return Status::OK();
}

void FrameReader::Feed(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

Result<bool> FrameReader::Next(ReplFrame* out) {
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeader) return false;
  uint32_t payload_len = 0, stored_crc = 0;
  std::memcpy(&payload_len, buf_.data() + pos_, sizeof payload_len);
  std::memcpy(&stored_crc, buf_.data() + pos_ + 4, sizeof stored_crc);
  if (payload_len > max_payload_) {
    return Status::Corruption("replication frame length exceeds limit");
  }
  const size_t frame_size = kFrameHeader + payload_len;
  if (avail < frame_size) return false;
  const uint8_t* body = buf_.data() + pos_ + 8;
  if (FrameCrc(body, 1 + payload_len) != stored_crc) {
    return Status::Corruption("replication frame checksum mismatch");
  }
  out->type = static_cast<ReplFrameType>(body[0]);
  out->payload.assign(body + 1, body + 1 + payload_len);
  pos_ += frame_size;
  return true;
}

}  // namespace repl
}  // namespace bursthist
