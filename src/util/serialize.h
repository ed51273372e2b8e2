// Minimal binary serialization substrate.
//
// All persistent structures in the library (PBE-1, PBE-2, CM-PBE, the
// dyadic index) serialize through BinaryWriter / BinaryReader. The
// format is little-endian, length-prefixed, with a per-structure magic
// and version so corrupt or mismatched payloads fail with a clean
// Status instead of undefined behaviour.

#ifndef BURSTHIST_UTIL_SERIALIZE_H_
#define BURSTHIST_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace bursthist {

/// Appends primitive values and vectors to a growable byte buffer.
class BinaryWriter {
 public:
  /// Writes a trivially-copyable scalar (fixed width, little endian on
  /// all supported platforms).
  template <typename T>
  void Put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  /// Pre-allocates room for `n` bytes in total, so a fixed-size frame
  /// is written into one allocation.
  void Reserve(size_t n) { buf_.reserve(n); }

  /// Writes a u64 length followed by the raw elements.
  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put<uint64_t>(v.size());
    const size_t old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) {
      std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
    }
  }

  /// Writes a u64 length followed by the raw bytes.
  void PutString(const std::string& s) {
    Put<uint64_t>(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }

  /// Bytes written so far.
  size_t size() const { return buf_.size(); }

  /// Overwrites a scalar previously written at `offset` (for length
  /// placeholders patched once the payload size is known).
  template <typename T>
  void Patch(size_t offset, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(buf_.data() + offset, &v, sizeof(T));
  }

  const uint8_t* data() const { return buf_.data(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reads values written by BinaryWriter. All getters bounds-check and
/// return Corruption on truncation.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) {
      return Status::Corruption("truncated buffer reading scalar");
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  template <typename T>
  Status GetVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    BURSTHIST_RETURN_IF_ERROR(Get(&n));
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::Corruption("truncated buffer reading vector");
    }
    out->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    BURSTHIST_RETURN_IF_ERROR(Get(&n));
    if (n > size_ - pos_) {
      return Status::Corruption("truncated buffer reading string");
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(n));
    pos_ += n;
    return Status::OK();
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  const uint8_t* data() const { return data_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Checksummed payload framing shared by every versioned blob:
///
///   magic u32 | version u32 | payload_len u64 | payload | crc32c u32
///
/// The CRC covers exactly the payload bytes, so a reader can verify
/// integrity BEFORE parsing a single payload field. Callers write
/// magic and version themselves (they are validated independently and
/// excluded so readers can refuse an unknown version first).
class CrcFrame {
 public:
  /// Writer: call right after magic+version; reserves the length slot.
  static size_t Begin(BinaryWriter* w);

  /// Writer: patches the length and appends the CRC32C trailer.
  /// `frame_pos` is the value Begin() returned.
  static void End(BinaryWriter* w, size_t frame_pos);

  /// Reader: consumes the length, bounds-checks it, and verifies the
  /// trailer CRC over the whole payload without consuming it. On OK,
  /// `payload_end` is the reader position one past the payload (the
  /// value Leave() expects).
  static Status Enter(BinaryReader* r, size_t* payload_end);

  /// Reader: checks the payload was consumed exactly and skips the
  /// trailer, leaving the reader positioned after the frame.
  static Status Leave(BinaryReader* r, size_t payload_end);
};

/// Writes `bytes` to `path` atomically enough for test/bench use.
Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes);

/// Reads the full contents of `path`.
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

}  // namespace bursthist

#endif  // BURSTHIST_UTIL_SERIALIZE_H_
