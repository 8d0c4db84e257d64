#ifndef MIDAS_STORE_BYTE_CODEC_H_
#define MIDAS_STORE_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace midas {
namespace store {

/// The little-endian byte codec shared by the record-log framing, the
/// checkpoint entries and the dist wire messages: u32/u64 integers, and
/// strings as a u32 length followed by the bytes.

inline uint32_t DecodeU32Le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

inline void EncodeU32Le(uint32_t v, char* p) {
  auto* b = reinterpret_cast<unsigned char*>(p);
  b[0] = static_cast<unsigned char>(v & 0xffu);
  b[1] = static_cast<unsigned char>((v >> 8) & 0xffu);
  b[2] = static_cast<unsigned char>((v >> 16) & 0xffu);
  b[3] = static_cast<unsigned char>((v >> 24) & 0xffu);
}

inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  EncodeU32Le(v, buf);
  out->append(buf, 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

inline void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader over an encoded payload. Every read is
/// length-guarded: wire messages are fuzzed without CRC protection, so a
/// decoder cannot rely on framing alone.
class ByteCursor {
 public:
  /// A string length field above `max_string_len` is corrupt bytes, not
  /// data; each format sets its cap well below the record-payload cap.
  ByteCursor(std::string_view data, uint32_t max_string_len)
      : data_(data), max_string_len_(max_string_len) {}

  bool ReadU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = DecodeU32Le(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadStr(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || len > max_string_len_ ||
        data_.size() - pos_ < len) {
      return false;
    }
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool ReadByte(char* c) {
    if (pos_ >= data_.size()) return false;
    *c = data_[pos_++];
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

  /// Guards a decoded element count against the bytes actually present
  /// (min_bytes per element) before any resize: a corrupt count field must
  /// fail the decode, not drive a multi-gigabyte allocation.
  bool PlausibleCount(uint32_t count, size_t min_bytes) const {
    return count <= (data_.size() - pos_) / min_bytes;
  }

 private:
  std::string_view data_;
  uint32_t max_string_len_;
  size_t pos_ = 0;
};

}  // namespace store
}  // namespace midas

#endif  // MIDAS_STORE_BYTE_CODEC_H_
