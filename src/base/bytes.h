// Little-endian byte encoding/decoding helpers used by the UISR wire format.

#ifndef HYPERTP_SRC_BASE_BYTES_H_
#define HYPERTP_SRC_BASE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/logging.h"
#include "src/base/result.h"

namespace hypertp {

// Largest payload PutLengthPrefixed/PutString can frame: the length prefix is
// a u32, so anything wider would silently truncate on the wire. Writers and
// the ByteCounter pre-pass both HYPERTP_CHECK against this before touching
// any bytes, so an oversized payload can never produce a malformed blob.
inline constexpr size_t kMaxLengthPrefixedBytes = UINT32_MAX;

namespace bytes_internal {

// Fixed-width little-endian store and load; the compiler folds each into a
// single move on little-endian hosts.
template <typename T>
inline void StoreLe(T v, uint8_t* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

template <typename T>
inline T LoadLe(const uint8_t* in) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(static_cast<T>(in[i]) << (8 * i)));
  }
  return v;
}

}  // namespace bytes_internal

// Appends fixed-width little-endian integers and length-prefixed blobs to a
// growing byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLe(v); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutBytes(std::span<const uint8_t> bytes);
  // Writes a u32 length prefix followed by the raw bytes. Aborts via
  // HYPERTP_CHECK when bytes.size() exceeds kMaxLengthPrefixedBytes.
  void PutLengthPrefixed(std::span<const uint8_t> bytes);
  // Writes a u32 length prefix followed by the string bytes (no terminator).
  // Same size guard as PutLengthPrefixed.
  void PutString(std::string_view s);

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buf_); }

  // Pre-allocates capacity for `total` bytes (current contents included), so
  // encoders that know their exact output size pay for one allocation.
  void Reserve(size_t total) { buf_.reserve(total); }

  // Overwrites 4 bytes at `offset` with `v`; used to back-patch section sizes.
  void PatchU32(size_t offset, uint32_t v);

 private:
  template <typename T>
  void PutLe(T v) {
    const size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    bytes_internal::StoreLe(v, buf_.data() + at);
  }

  std::vector<uint8_t> buf_;
};

// ByteWriter's interface over caller-owned storage of fixed capacity: the one
// way UISR bytes are written. The caller sizes the storage once (ByteCounter /
// EncodedUisrSize) and the encoder writes the wire bytes straight into the
// span that keeps them — a vector, a checkpoint file or a kUisr frame extent
// (PramFrameWriter). Writing past the span's end is a programming error and
// aborts via HYPERTP_CHECK.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<uint8_t> dest) : dest_(dest) {}

  void PutU8(uint8_t v) { PutLe(v); }
  void PutU16(uint16_t v) { PutLe(v); }
  void PutU32(uint32_t v) { PutLe(v); }
  void PutU64(uint64_t v) { PutLe(v); }
  void PutBytes(std::span<const uint8_t> bytes);
  // Same framing and size guard as ByteWriter::PutLengthPrefixed.
  void PutLengthPrefixed(std::span<const uint8_t> bytes);
  void PutString(std::string_view s);
  void PatchU32(size_t offset, uint32_t v);

  size_t size() const { return pos_; }
  size_t capacity() const { return dest_.size(); }
  // Bytes written so far, from offset `start`.
  std::span<const uint8_t> Written(size_t start) const {
    return std::span<const uint8_t>(dest_).first(pos_).subspan(start);
  }

 private:
  template <typename T>
  void PutLe(T v) {
    HYPERTP_CHECK(pos_ + sizeof(T) <= dest_.size());
    bytes_internal::StoreLe(v, dest_.data() + pos_);
    pos_ += sizeof(T);
  }

  std::span<uint8_t> dest_;
  size_t pos_ = 0;
};

// Drop-in stand-in for a writer that counts bytes instead of storing them.
// Encoders templated on the writer type run once against a ByteCounter to
// learn their exact output size, then encode for real into a SpanWriter over
// storage of that size.
class ByteCounter {
 public:
  void PutU8(uint8_t) { ++size_; }
  void PutU16(uint16_t) { size_ += 2; }
  void PutU32(uint32_t) { size_ += 4; }
  void PutU64(uint64_t) { size_ += 8; }
  void PutBytes(std::span<const uint8_t> bytes) { size_ += bytes.size(); }
  // Mirrors the writers' oversized-payload guard: the pre-pass must fail the
  // same way the real encode would, not report a size the wire can't carry.
  void PutLengthPrefixed(std::span<const uint8_t> bytes) {
    HYPERTP_CHECK(bytes.size() <= kMaxLengthPrefixedBytes);
    size_ += 4 + bytes.size();
  }
  void PutString(std::string_view s) {
    HYPERTP_CHECK(s.size() <= kMaxLengthPrefixedBytes);
    size_ += 4 + s.size();
  }
  // Patches rewrite bytes already counted; nothing to do.
  void PatchU32(size_t, uint32_t) {}

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// Reads fixed-width little-endian integers from a byte span with bounds checks.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadU8() { return ReadLe<uint8_t>(); }
  Result<uint16_t> ReadU16() { return ReadLe<uint16_t>(); }
  Result<uint32_t> ReadU32() { return ReadLe<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadLe<uint64_t>(); }
  // Reads exactly `n` raw bytes.
  Result<std::vector<uint8_t>> ReadBytes(size_t n);
  // Reads a u32 length prefix then that many bytes.
  Result<std::vector<uint8_t>> ReadLengthPrefixed();
  Result<std::string> ReadString();
  // Skips `n` bytes.
  Result<void> Skip(size_t n);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> ReadLe() {
    if (remaining() < sizeof(T)) {
      return Truncated(sizeof(T));
    }
    const T v = bytes_internal::LoadLe<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  Result<void> Require(size_t n) {
    if (remaining() < n) {
      return Truncated(n);
    }
    return OkResult();
  }
  // The kDataLoss error for a read of `n` bytes at the current position.
  // Out of line, so the inline reads carry no string building.
  Error Truncated(size_t n) const;

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_BASE_BYTES_H_
