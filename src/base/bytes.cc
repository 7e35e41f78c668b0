#include "src/base/bytes.h"

namespace hypertp {

void ByteWriter::PutBytes(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::PutLengthPrefixed(std::span<const uint8_t> bytes) {
  // Guard before any byte lands: a payload wider than the u32 prefix used to
  // be silently truncated by the cast, producing a blob whose declared length
  // disagreed with its contents.
  HYPERTP_CHECK(bytes.size() <= kMaxLengthPrefixedBytes);
  PutU32(static_cast<uint32_t>(bytes.size()));
  PutBytes(bytes);
}

void ByteWriter::PutString(std::string_view s) {
  HYPERTP_CHECK(s.size() <= kMaxLengthPrefixedBytes);
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.at(offset + static_cast<size_t>(i)) = static_cast<uint8_t>(v >> (8 * i));
  }
}

void SpanWriter::PutBytes(std::span<const uint8_t> bytes) {
  HYPERTP_CHECK(pos_ + bytes.size() <= dest_.size());
  if (!bytes.empty()) {
    std::memcpy(dest_.data() + pos_, bytes.data(), bytes.size());
  }
  pos_ += bytes.size();
}

void SpanWriter::PutLengthPrefixed(std::span<const uint8_t> bytes) {
  HYPERTP_CHECK(bytes.size() <= kMaxLengthPrefixedBytes);
  PutU32(static_cast<uint32_t>(bytes.size()));
  PutBytes(bytes);
}

void SpanWriter::PutString(std::string_view s) {
  HYPERTP_CHECK(s.size() <= kMaxLengthPrefixedBytes);
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

void SpanWriter::PatchU32(size_t offset, uint32_t v) {
  HYPERTP_CHECK(offset + 4 <= pos_);
  for (int i = 0; i < 4; ++i) {
    dest_[offset + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

Error ByteReader::Truncated(size_t n) const {
  return DataLossError("byte reader: truncated input, need " + std::to_string(n) +
                       " bytes at offset " + std::to_string(pos_) + ", have " +
                       std::to_string(remaining()));
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t n) {
  HYPERTP_RETURN_IF_ERROR(Require(n));
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::vector<uint8_t>> ByteReader::ReadLengthPrefixed() {
  HYPERTP_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  return ReadBytes(n);
}

Result<std::string> ByteReader::ReadString() {
  HYPERTP_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  HYPERTP_RETURN_IF_ERROR(Require(n));
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Result<void> ByteReader::Skip(size_t n) {
  HYPERTP_RETURN_IF_ERROR(Require(n));
  pos_ += n;
  return OkResult();
}

}  // namespace hypertp
