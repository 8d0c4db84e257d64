#ifndef MIDAS_STORE_COLUMNAR_H_
#define MIDAS_STORE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "midas/util/status.h"

namespace midas {
namespace store {

/// MIDASCOL1 — the binary columnar extraction-dump format. See
/// docs/FORMATS.md for the byte-level layout. In short: a 16-byte magic
/// header; seven 8-aligned sections (two string dictionaries — triple terms
/// and source URLs — then five per-record columns: f64 confidences and u32
/// url/subject/predicate/object codes); and a fixed-size footer carrying
/// the counts, per-section {offset, size, CRC-32}, a content hash, and its
/// own CRC + trailing magic. The trailing magic + footer CRC make torn
/// writes detectable without reading the body; the per-section CRCs catch
/// bit rot. All integers are little-endian; the format is only read/written
/// on little-endian hosts (statically asserted in the implementation).
///
/// This layer is deliberately dumb about RDF: it moves strings, u32 codes,
/// and doubles. Dictionary-aware glue (interning into rdf::Dictionary,
/// building a web::Corpus) lives in midas/extract/columnar_io.

inline constexpr char kColumnarMagic[] = "MIDASCOL1";  // 9 chars + NUL
inline constexpr size_t kColumnarHeaderSize = 16;
inline constexpr size_t kColumnarNumSections = 7;

/// Section indices, in file order.
enum ColumnarSection : size_t {
  kSectionTerms = 0,     // dictionary for subject/predicate/object terms
  kSectionUrls = 1,      // dictionary for source URLs
  kSectionConfidence = 2,  // f64[num_records]
  kSectionUrlCode = 3,     // u32[num_records]
  kSectionSubject = 4,     // u32[num_records]
  kSectionPredicate = 5,   // u32[num_records]
  kSectionObject = 6,      // u32[num_records]
};

/// Streaming writer. Records are appended one at a time; bounded in-memory
/// column buffers spill to per-column temp files, so RAM usage is O(buffer
/// + dictionaries), never O(records) — the macro-scale corpus generator
/// streams 100M-record corpora through this. Finish() assembles the final
/// file with the AtomicWriteFile discipline (temp + fsync + rename + fsync
/// parent) and honors the `io_write_fail` and `io_torn_write` fault sites;
/// a torn write leaves the truncated temp file behind as the simulated
/// crash state and never touches `path`.
class ColumnarWriter {
 public:
  /// Returns a string for dictionary entry `index`; must be stable across
  /// calls (Finish may evaluate an entry more than once).
  using DictFn = std::function<std::string_view(size_t)>;

  explicit ColumnarWriter(std::string path);
  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;
  /// Removes spill temp files if Finish was never (successfully) reached.
  ~ColumnarWriter();

  /// Appends one record. Codes are validated against the dictionary sizes
  /// at Finish time.
  void AddRecord(uint32_t url_code, uint32_t subject, uint32_t predicate,
                 uint32_t object, double confidence);

  uint64_t num_records() const { return num_records_; }

  /// Writes the final file: `term(i)` for i in [0, num_terms) supplies the
  /// term dictionary, `url(i)` likewise. Callable once.
  Status Finish(size_t num_terms, const DictFn& term, size_t num_urls,
                const DictFn& url);

  /// The content hash written into the footer; valid after a successful
  /// Finish. Checkpoint fingerprints bind to this.
  uint64_t content_fingerprint() const { return content_fingerprint_; }

 private:
  struct ColumnBuffers;

  Status FlushBuffers();
  void RemoveSpills();

  std::string path_;
  uint64_t num_records_ = 0;
  uint32_t max_term_code_ = 0;
  uint32_t max_url_code_ = 0;
  uint64_t content_fingerprint_ = 0;
  bool finished_ = false;
  Status spill_status_;  // sticky: first spill write error
  std::vector<double> conf_buf_;
  std::vector<uint32_t> code_buf_[4];  // url, subject, predicate, object
  std::FILE* spill_[5] = {nullptr, nullptr, nullptr, nullptr, nullptr};
  std::string spill_path_[5];
};

struct ColumnarReadOptions {
  /// Verify the per-section CRC-32s and that every record code is within
  /// its dictionary (one extra read pass). The footer CRC + magics are
  /// always checked regardless. Disable only for files this process just
  /// verified; the reader hands out raw pointers, so a corrupt unverified
  /// file can crash downstream code.
  bool verify_checksums = true;
};

/// mmap-backed zero-copy reader. Open() maps the whole file read-only and
/// validates it; accessors then return pointers straight into the mapping
/// (no parse, no intern, no copies). The mapping lives until the reader is
/// destroyed; every pointer/string_view handed out is invalidated then.
class ColumnarReader {
 public:
  ColumnarReader() = default;
  ColumnarReader(const ColumnarReader&) = delete;
  ColumnarReader& operator=(const ColumnarReader&) = delete;
  ~ColumnarReader() { Close(); }

  /// Maps and validates `path`. On failure the reader stays closed.
  /// NotFound if the file does not exist, Corruption for any validation
  /// failure (bad magic, footer CRC, section CRC, out-of-range code, ...),
  /// IoError for system-call failures.
  Status Open(const std::string& path, const ColumnarReadOptions& options);
  Status Open(const std::string& path) { return Open(path, {}); }

  void Close();
  bool is_open() const { return base_ != nullptr; }

  uint64_t num_records() const { return num_records_; }
  uint64_t num_terms() const { return num_terms_; }
  uint64_t num_urls() const { return num_urls_; }
  /// The footer content hash (covers header + all sections).
  uint64_t content_fingerprint() const { return content_fingerprint_; }

  std::string_view term(uint32_t code) const {
    return {terms_blob_ + term_offsets_[code],
            static_cast<size_t>(term_offsets_[code + 1] - term_offsets_[code])};
  }
  std::string_view url(uint32_t code) const {
    return {urls_blob_ + url_offsets_[code],
            static_cast<size_t>(url_offsets_[code + 1] - url_offsets_[code])};
  }

  const double* confidences() const { return confidences_; }
  const uint32_t* url_codes() const { return url_codes_; }
  const uint32_t* subjects() const { return subjects_; }
  const uint32_t* predicates() const { return predicates_; }
  const uint32_t* objects() const { return objects_; }

 private:
  const char* base_ = nullptr;  // mmap base; null when closed
  size_t map_size_ = 0;
  uint64_t num_records_ = 0;
  uint64_t num_terms_ = 0;
  uint64_t num_urls_ = 0;
  uint64_t content_fingerprint_ = 0;
  const uint64_t* term_offsets_ = nullptr;
  const char* terms_blob_ = nullptr;
  const uint64_t* url_offsets_ = nullptr;
  const char* urls_blob_ = nullptr;
  const double* confidences_ = nullptr;
  const uint32_t* url_codes_ = nullptr;
  const uint32_t* subjects_ = nullptr;
  const uint32_t* predicates_ = nullptr;
  const uint32_t* objects_ = nullptr;
};

/// True iff `path` exists and starts with the MIDASCOL1 magic. Cheap (reads
/// 16 bytes); used by LoadDump's format auto-detection. Missing or short
/// files return false.
bool SniffColumnarMagic(const std::string& path);

}  // namespace store
}  // namespace midas

#endif  // MIDAS_STORE_COLUMNAR_H_
