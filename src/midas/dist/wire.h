#ifndef MIDAS_DIST_WIRE_H_
#define MIDAS_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "midas/core/framework.h"
#include "midas/core/types.h"
#include "midas/rdf/dictionary.h"
#include "midas/util/status.h"

namespace midas {
namespace dist {

/// midas::dist wire protocol, message layer.
///
/// A dist connection is two independent MIDASLG1 record-log streams, one
/// per direction: each side writes the 8-byte magic on connect, then
/// CRC-framed records (store/record_log.h — the exact framing the durable
/// checkpoint log uses, so the wire and disk formats stay one codec; frame
/// encode/decode lives in store::EncodeRecordFrame /
/// store::RecordStreamDecoder). Each record payload is one message:
///
///   message    := kind:u8 body
///   Hello      := 'h' protocol:u32 fingerprint:u64       (worker → coord)
///   WorkAssign := 'a' unit:u64 assignment:u32 consolidate:u8 url:str
///                 nsources:u32 source_id:u32* child_blob:str
///                                                       (coord → worker)
///   WorkResult := 'r' unit:u64 assignment:u32 status:u32 attempts:u32
///                 error:str slice_blob:str               (worker → coord)
///   Heartbeat  := 'b' units_completed:u64                (worker → coord)
///   Shutdown   := 'q'                                    (coord → worker)
///
/// Integers little-endian; strings u32 length + bytes. A shard travels as
/// the corpus source ids it covers (ShardTask::source_ids): every worker
/// holds the run's corpus, so it rebuilds the shard's facts from its own
/// copy and no fact crosses the wire. Slice terms travel as dictionary
/// *strings* (ids are interning-order-dependent and never cross the wire):
/// child_blob / slice_blob nest store::EncodeSliceList payloads, so slices
/// cross the socket with the checkpoint codec's bit-exact profit.
///
/// Hello's fingerprint is core::ComputeRunFingerprint: a coordinator
/// rejects a worker that loaded a different corpus (content, not just
/// shape), seed, pipeline mode or detector instead of merging results that
/// cannot be bit-identical — and source ids name the same facts on both
/// ends only because of that check.

/// Current protocol version, carried in Hello. v2 added
/// WorkResult.assignment; v4 names shards by corpus source id. A Hello from
/// any other version decodes to its version alone, so the handshake rejects
/// it by number instead of mistaking its body for corrupt bytes.
inline constexpr uint32_t kDistProtocolVersion = 4;

enum class MessageKind : uint8_t {
  kHello = 'h',
  kWorkAssign = 'a',
  kWorkResult = 'r',
  kHeartbeat = 'b',
  kShutdown = 'q',
};

struct HelloMsg {
  uint32_t protocol = kDistProtocolVersion;
  uint64_t fingerprint = 0;
};

struct WorkAssignMsg {
  /// Round-local shard index; echoed back by WorkResult.
  uint64_t unit = 0;
  /// 1-based count of times this unit has been handed out (re-assignments
  /// after a worker loss bump it). Part of the worker_crash fault key, so a
  /// seeded crash does not re-fire on the re-assigned attempt.
  uint32_t assignment = 1;
  /// Hierarchy mode: consolidate detected slices against child_slices.
  bool consolidate = false;
  std::string url;
  /// Indices into the run corpus's sources() whose facts make up the shard
  /// (ShardTask::source_ids).
  std::vector<uint32_t> source_ids;
  /// Children's tentative slices (their properties seed the detector).
  std::vector<core::DiscoveredSlice> child_slices;
};

struct WorkResultMsg {
  uint64_t unit = 0;
  /// Echo of WorkAssignMsg::assignment. A result whose (unit, assignment)
  /// differs from what its worker holds is a protocol violation, and the
  /// coordinator loses the worker.
  uint32_t assignment = 1;
  core::SourceStatus status = core::SourceStatus::kCancelled;
  uint32_t attempts = 0;
  std::string error;
  /// Surviving slices (post-consolidation in hierarchy mode).
  std::vector<core::DiscoveredSlice> slices;
};

struct HeartbeatMsg {
  uint64_t units_completed = 0;
};

/// Reads the kind byte without decoding the body. Corruption on an empty
/// payload or an unknown kind.
StatusOr<MessageKind> PeekKind(std::string_view payload);

std::string EncodeHello(const HelloMsg& msg);
Status DecodeHello(std::string_view payload, HelloMsg* out);

std::string EncodeWorkAssign(const WorkAssignMsg& msg,
                             const rdf::Dictionary& dict);
Status DecodeWorkAssign(std::string_view payload, const rdf::Dictionary& dict,
                        WorkAssignMsg* out);

std::string EncodeWorkResult(const WorkResultMsg& msg,
                             const rdf::Dictionary& dict);
Status DecodeWorkResult(std::string_view payload, const rdf::Dictionary& dict,
                        WorkResultMsg* out);

std::string EncodeHeartbeat(const HeartbeatMsg& msg);
Status DecodeHeartbeat(std::string_view payload, HeartbeatMsg* out);

std::string EncodeShutdown();
Status DecodeShutdown(std::string_view payload);

}  // namespace dist
}  // namespace midas

#endif  // MIDAS_DIST_WIRE_H_
