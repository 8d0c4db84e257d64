#include "midas/dist/wire.h"

#include "midas/store/byte_codec.h"
#include "midas/store/checkpoint.h"

namespace midas {
namespace dist {

namespace {

using store::AppendStr;
using store::AppendU32;
using store::AppendU64;
using store::ByteCursor;

/// Message strings (URLs, error texts, nested slice blobs) are bounded well
/// below the 64 MiB record-payload cap; a longer length field is corrupt
/// bytes, not data.
constexpr uint32_t kMaxStringLen = 48u * 1024u * 1024u;

bool ReadKindByte(ByteCursor* cur, MessageKind want) {
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
  ByteCursor cur(payload, kMaxStringLen);
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
  ByteCursor cur(payload, kMaxStringLen);
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
  if (!cur.ReadU32(&nsources) || !cur.PlausibleCount(nsources, 4)) {
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
  ByteCursor cur(payload, kMaxStringLen);
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
  ByteCursor cur(payload, kMaxStringLen);
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
  ByteCursor cur(payload, kMaxStringLen);
  if (!ReadKindByte(&cur, MessageKind::kShutdown) || !cur.AtEnd()) {
    return CorruptMsg("shutdown");
  }
  return Status::OK();
}

}  // namespace dist
}  // namespace midas
