#include "midas/store/checkpoint.h"

#include <bit>
#include <optional>

#include "midas/store/byte_codec.h"

namespace midas {
namespace store {

namespace {

constexpr char kHeaderTag = 'H';
constexpr char kEntryTag = 'E';

/// Strings inside a checkpoint are bounded well below the record-payload
/// cap; a longer length field means corrupt bytes, not real data.
constexpr uint32_t kMaxStringLen = 16u * 1024u * 1024u;

void AppendTerm(std::string* out, rdf::TermId id, const rdf::Dictionary& dict) {
  AppendStr(out, dict.Term(id));
}

bool ReadTerm(ByteCursor* cur, const rdf::Dictionary& dict, rdf::TermId* id,
              std::string* scratch) {
  if (!cur->ReadStr(scratch)) return false;
  const std::optional<rdf::TermId> found = dict.Lookup(*scratch);
  if (!found.has_value()) return false;
  *id = *found;
  return true;
}

void AppendSlice(std::string* payload, const core::DiscoveredSlice& slice,
                 const rdf::Dictionary& dict) {
  AppendStr(payload, slice.source_url);
  AppendU32(payload, static_cast<uint32_t>(slice.properties.size()));
  for (const core::PropertyPair& prop : slice.properties) {
    AppendTerm(payload, prop.predicate, dict);
    AppendTerm(payload, prop.value, dict);
  }
  AppendU32(payload, static_cast<uint32_t>(slice.entities.size()));
  for (const rdf::TermId entity : slice.entities) {
    AppendTerm(payload, entity, dict);
  }
  AppendU32(payload, static_cast<uint32_t>(slice.facts.size()));
  for (const rdf::Triple& fact : slice.facts) {
    AppendTerm(payload, fact.subject, dict);
    AppendTerm(payload, fact.predicate, dict);
    AppendTerm(payload, fact.object, dict);
  }
  AppendU64(payload, slice.num_facts);
  AppendU64(payload, slice.num_new_facts);
  // Exact bit pattern: the restored profit compares == to the original.
  AppendU64(payload, std::bit_cast<uint64_t>(slice.profit));
}

bool ReadSlice(ByteCursor* cur, const rdf::Dictionary& dict,
               core::DiscoveredSlice* slice, std::string* scratch) {
  if (!cur->ReadStr(&slice->source_url)) return false;
  uint32_t count = 0;
  if (!cur->ReadU32(&count) || !cur->PlausibleCount(count, 8)) return false;
  slice->properties.resize(count);
  for (auto& prop : slice->properties) {
    if (!ReadTerm(cur, dict, &prop.predicate, scratch) ||
        !ReadTerm(cur, dict, &prop.value, scratch)) {
      return false;
    }
  }
  if (!cur->ReadU32(&count) || !cur->PlausibleCount(count, 4)) return false;
  slice->entities.resize(count);
  for (auto& entity : slice->entities) {
    if (!ReadTerm(cur, dict, &entity, scratch)) return false;
  }
  if (!cur->ReadU32(&count) || !cur->PlausibleCount(count, 12)) return false;
  slice->facts.resize(count);
  for (auto& fact : slice->facts) {
    if (!ReadTerm(cur, dict, &fact.subject, scratch) ||
        !ReadTerm(cur, dict, &fact.predicate, scratch) ||
        !ReadTerm(cur, dict, &fact.object, scratch)) {
      return false;
    }
  }
  uint64_t num_facts = 0;
  uint64_t num_new_facts = 0;
  uint64_t profit_bits = 0;
  if (!cur->ReadU64(&num_facts) || !cur->ReadU64(&num_new_facts) ||
      !cur->ReadU64(&profit_bits)) {
    return false;
  }
  slice->num_facts = static_cast<size_t>(num_facts);
  slice->num_new_facts = static_cast<size_t>(num_new_facts);
  slice->profit = std::bit_cast<double>(profit_bits);
  return true;
}

}  // namespace

std::string EncodeCheckpointHeader(uint64_t fingerprint) {
  std::string payload;
  payload.push_back(kHeaderTag);
  AppendU32(&payload, kCheckpointVersion);
  AppendU64(&payload, fingerprint);
  return payload;
}

std::string EncodeCheckpointEntry(const CheckpointEntry& entry,
                                  const rdf::Dictionary& dict) {
  std::string payload;
  payload.push_back(kEntryTag);
  AppendStr(&payload, entry.url);
  AppendU32(&payload, static_cast<uint32_t>(entry.status));
  AppendU32(&payload, entry.attempts);
  AppendStr(&payload, entry.error);
  AppendU32(&payload, static_cast<uint32_t>(entry.slices.size()));
  for (const core::DiscoveredSlice& slice : entry.slices) {
    AppendSlice(&payload, slice, dict);
  }
  return payload;
}

std::string EncodeSliceList(const std::vector<core::DiscoveredSlice>& slices,
                            const rdf::Dictionary& dict) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(slices.size()));
  for (const core::DiscoveredSlice& slice : slices) {
    AppendSlice(&payload, slice, dict);
  }
  return payload;
}

Status DecodeSliceList(std::string_view payload, const rdf::Dictionary& dict,
                       std::vector<core::DiscoveredSlice>* out) {
  const Status corrupt = Status::Corruption("malformed slice list");
  ByteCursor cur(payload, kMaxStringLen);
  uint32_t num_slices = 0;
  if (!cur.ReadU32(&num_slices) || !cur.PlausibleCount(num_slices, 4)) {
    return corrupt;
  }
  out->clear();
  std::string scratch;
  for (uint32_t i = 0; i < num_slices; ++i) {
    core::DiscoveredSlice slice;
    if (!ReadSlice(&cur, dict, &slice, &scratch)) return corrupt;
    out->push_back(std::move(slice));
  }
  if (!cur.AtEnd()) return corrupt;
  return Status::OK();
}

Status DecodeCheckpointEntry(std::string_view payload,
                             const rdf::Dictionary& dict,
                             CheckpointEntry* out) {
  const Status corrupt = Status::Corruption("malformed checkpoint entry");
  ByteCursor cur(payload, kMaxStringLen);
  char tag = 0;
  if (!cur.ReadByte(&tag) || tag != kEntryTag) return corrupt;
  *out = CheckpointEntry();
  uint32_t status = 0;
  if (!cur.ReadStr(&out->url) || !cur.ReadU32(&status) ||
      !cur.ReadU32(&out->attempts) || !cur.ReadStr(&out->error)) {
    return corrupt;
  }
  if (status > static_cast<uint32_t>(core::SourceStatus::kCancelled)) {
    return corrupt;
  }
  out->status = static_cast<core::SourceStatus>(status);
  uint32_t num_slices = 0;
  if (!cur.ReadU32(&num_slices) || !cur.PlausibleCount(num_slices, 4)) {
    return corrupt;
  }
  std::string scratch;
  out->slices.reserve(num_slices);
  for (uint32_t i = 0; i < num_slices; ++i) {
    core::DiscoveredSlice slice;
    if (!ReadSlice(&cur, dict, &slice, &scratch)) return corrupt;
    out->slices.push_back(std::move(slice));
  }
  if (!cur.AtEnd()) return corrupt;
  return Status::OK();
}

StatusOr<CheckpointLoadResult> LoadCheckpoint(const std::string& path,
                                              uint64_t fingerprint,
                                              const rdf::Dictionary& dict) {
  StatusOr<RecordReadResult> read = ReadRecordLog(path);
  if (!read.ok()) return read.status();

  if (read->records.empty()) {
    // A log with a valid magic but no intact header record: unusable, and
    // not resumable either.
    return Status::Corruption("checkpoint '" + path + "' has no header");
  }
  ByteCursor header(read->records[0], kMaxStringLen);
  char tag = 0;
  uint32_t version = 0;
  uint64_t stored_fingerprint = 0;
  if (!header.ReadByte(&tag) || tag != kHeaderTag ||
      !header.ReadU32(&version) || !header.ReadU64(&stored_fingerprint) ||
      !header.AtEnd()) {
    return Status::Corruption("checkpoint '" + path + "' has a bad header");
  }
  if (version != kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint '" + path + "' has version " + std::to_string(version) +
        ", expected " + std::to_string(kCheckpointVersion));
  }
  if (stored_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint '" + path +
        "' was written by a different run (fingerprint mismatch)");
  }

  CheckpointLoadResult result;
  result.valid_bytes = read->valid_bytes;
  result.tail_truncated = read->tail_truncated;
  result.entries.reserve(read->records.size() - 1);
  for (size_t i = 1; i < read->records.size(); ++i) {
    CheckpointEntry entry;
    // A record that passed its CRC but fails to decode means a format bug
    // or a dictionary that doesn't match this corpus — not a torn tail, so
    // it is an error rather than a recovery.
    MIDAS_RETURN_IF_ERROR(DecodeCheckpointEntry(read->records[i], dict,
                                                &entry));
    result.entries.push_back(std::move(entry));
  }
  return result;
}

Status CheckpointWriter::Create(const std::string& path, uint64_t fingerprint) {
  MIDAS_RETURN_IF_ERROR(writer_.Create(path));
  Status status = writer_.Append(EncodeCheckpointHeader(fingerprint));
  if (!status.ok()) {
    writer_.Close();
    return status;
  }
  return Status::OK();
}

Status CheckpointWriter::OpenForAppend(const std::string& path,
                                       uint64_t valid_bytes) {
  return writer_.OpenForAppend(path, valid_bytes);
}

Status CheckpointWriter::Append(const CheckpointEntry& entry,
                                const rdf::Dictionary& dict) {
  return writer_.Append(EncodeCheckpointEntry(entry, dict));
}

Status CheckpointWriter::Close() { return writer_.Close(); }

}  // namespace store
}  // namespace midas
