#include "midas/dist/wire.h"

#include "midas/store/checkpoint.h"

namespace midas {
namespace dist {

namespace {

/// Message strings (URLs, error texts, nested slice blobs) are bounded well
/// below the 64 MiB record-payload cap; a longer length field is corrupt
/// bytes, not data.
constexpr uint32_t kMaxStringLen = 48u * 1024u * 1024u;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xffu);
  buf[1] = static_cast<char>((v >> 8) & 0xffu);
  buf[2] = static_cast<char>((v >> 16) & 0xffu);
  buf[3] = static_cast<char>((v >> 24) & 0xffu);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader over a message payload (same shape as
/// the checkpoint codec's cursor; wire messages are fuzzed without CRC
/// protection, so every read is length-guarded).
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    const auto* b = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
    *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
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
    if (!ReadU32(&len) || len > kMaxStringLen || data_.size() - pos_ < len) {
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

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

bool PlausibleCount(const Cursor& cur, uint32_t count, size_t min_bytes) {
  return count <= cur.remaining() / min_bytes;
}

bool ReadKindByte(Cursor* cur, MessageKind want) {
  char kind = 0;
  return cur->ReadByte(&kind) &&
         kind == static_cast<char>(static_cast<uint8_t>(want));
}

Status CorruptMsg(const char* what) {
  return Status::Corruption(std::string("malformed dist message: ") + what);
}

}  // namespace

StatusOr<MessageKind> PeekKind(std::string_view payload) {
  if (payload.empty()) return CorruptMsg("empty payload");
  switch (payload[0]) {
    case 'h':
      return MessageKind::kHello;
    case 'a':
      return MessageKind::kWorkAssign;
    case 'r':
      return MessageKind::kWorkResult;
    case 'b':
      return MessageKind::kHeartbeat;
    case 'q':
      return MessageKind::kShutdown;
    default:
      return CorruptMsg("unknown message kind");
  }
}

std::string EncodeHello(const HelloMsg& msg) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageKind::kHello));
  AppendU32(&payload, msg.protocol);
  AppendU64(&payload, msg.fingerprint);
  return payload;
}

Status DecodeHello(std::string_view payload, HelloMsg* out) {
  Cursor cur(payload);
  *out = HelloMsg();
  if (!ReadKindByte(&cur, MessageKind::kHello) ||
      !cur.ReadU32(&out->protocol)) {
    return CorruptMsg("hello");
  }
  // Another version's body is that version's business: decode the number
  // alone, so the handshake rejects the peer by version instead of losing
  // it as a corrupt stream.
  if (out->protocol != kDistProtocolVersion) return Status::OK();
  if (!cur.ReadU64(&out->fingerprint) || !cur.AtEnd()) {
    return CorruptMsg("hello");
  }
  return Status::OK();
}

std::string EncodeWorkAssign(const WorkAssignMsg& msg,
                             const rdf::Dictionary& dict) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageKind::kWorkAssign));
  AppendU64(&payload, msg.unit);
  AppendU32(&payload, msg.assignment);
  payload.push_back(msg.consolidate ? '\1' : '\0');
  AppendStr(&payload, msg.url);
  AppendU32(&payload, static_cast<uint32_t>(msg.source_ids.size()));
  for (const uint32_t id : msg.source_ids) AppendU32(&payload, id);
  AppendStr(&payload, store::EncodeSliceList(msg.child_slices, dict));
  return payload;
}

Status DecodeWorkAssign(std::string_view payload, const rdf::Dictionary& dict,
                        WorkAssignMsg* out) {
  Cursor cur(payload);
  *out = WorkAssignMsg();
  char consolidate = 0;
  if (!ReadKindByte(&cur, MessageKind::kWorkAssign) || !cur.ReadU64(&out->unit) ||
      !cur.ReadU32(&out->assignment) || !cur.ReadByte(&consolidate) ||
      !cur.ReadStr(&out->url)) {
    return CorruptMsg("work_assign header");
  }
  if (consolidate != '\0' && consolidate != '\1') {
    return CorruptMsg("work_assign consolidate flag");
  }
  out->consolidate = consolidate == '\1';
  uint32_t nsources = 0;
  if (!cur.ReadU32(&nsources) || !PlausibleCount(cur, nsources, 4)) {
    return CorruptMsg("work_assign source count");
  }
  out->source_ids.resize(nsources);
  for (uint32_t& id : out->source_ids) {
    if (!cur.ReadU32(&id)) return CorruptMsg("work_assign source id");
  }
  std::string blob;
  if (!cur.ReadStr(&blob) || !cur.AtEnd()) {
    return CorruptMsg("work_assign slice blob");
  }
  MIDAS_RETURN_IF_ERROR(store::DecodeSliceList(blob, dict, &out->child_slices));
  return Status::OK();
}

std::string EncodeWorkResult(const WorkResultMsg& msg,
                             const rdf::Dictionary& dict) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageKind::kWorkResult));
  AppendU64(&payload, msg.unit);
  AppendU32(&payload, msg.assignment);
  AppendU32(&payload, static_cast<uint32_t>(msg.status));
  AppendU32(&payload, msg.attempts);
  AppendStr(&payload, msg.error);
  AppendStr(&payload, store::EncodeSliceList(msg.slices, dict));
  return payload;
}

Status DecodeWorkResult(std::string_view payload, const rdf::Dictionary& dict,
                        WorkResultMsg* out) {
  Cursor cur(payload);
  *out = WorkResultMsg();
  uint32_t status = 0;
  if (!ReadKindByte(&cur, MessageKind::kWorkResult) || !cur.ReadU64(&out->unit) ||
      !cur.ReadU32(&out->assignment) || !cur.ReadU32(&status) ||
      !cur.ReadU32(&out->attempts) || !cur.ReadStr(&out->error)) {
    return CorruptMsg("work_result header");
  }
  if (status > static_cast<uint32_t>(core::SourceStatus::kCancelled)) {
    return CorruptMsg("work_result status out of range");
  }
  out->status = static_cast<core::SourceStatus>(status);
  std::string blob;
  if (!cur.ReadStr(&blob) || !cur.AtEnd()) {
    return CorruptMsg("work_result slice blob");
  }
  MIDAS_RETURN_IF_ERROR(store::DecodeSliceList(blob, dict, &out->slices));
  return Status::OK();
}

std::string EncodeHeartbeat(const HeartbeatMsg& msg) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageKind::kHeartbeat));
  AppendU64(&payload, msg.units_completed);
  return payload;
}

Status DecodeHeartbeat(std::string_view payload, HeartbeatMsg* out) {
  Cursor cur(payload);
  if (!ReadKindByte(&cur, MessageKind::kHeartbeat) ||
      !cur.ReadU64(&out->units_completed) || !cur.AtEnd()) {
    return CorruptMsg("heartbeat");
  }
  return Status::OK();
}

std::string EncodeShutdown() {
  return std::string(1, static_cast<char>(MessageKind::kShutdown));
}

Status DecodeShutdown(std::string_view payload) {
  Cursor cur(payload);
  if (!ReadKindByte(&cur, MessageKind::kShutdown) || !cur.AtEnd()) {
    return CorruptMsg("shutdown");
  }
  return Status::OK();
}

}  // namespace dist
}  // namespace midas
