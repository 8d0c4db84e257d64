#include "midas/store/columnar.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstring>

#include "midas/fault/fault.h"
#include "midas/store/atomic_file.h"
#include "midas/store/crc32.h"

namespace midas {
namespace store {

// The format writes raw little-endian PODs and the reader hands out
// pointers into the mapping, so both sides must agree on byte order.
static_assert(std::endian::native == std::endian::little,
              "MIDASCOL1 is only supported on little-endian hosts");

namespace {

/// Per-section location record in the footer.
struct SectionInfo {
  uint64_t offset = 0;  // absolute file offset; 8-aligned
  uint64_t size = 0;    // payload bytes (excludes alignment padding)
  uint32_t crc = 0;     // CRC-32 of the payload bytes
  uint32_t reserved = 0;
};
static_assert(sizeof(SectionInfo) == 24);

/// Fixed-size trailer. `footer_crc` covers every footer byte before it;
/// the trailing magic makes a truncated file obvious from the tail alone.
struct Footer {
  uint64_t num_records = 0;
  uint64_t num_terms = 0;
  uint64_t num_urls = 0;
  SectionInfo sections[kColumnarNumSections];
  uint64_t content_hash = 0;
  uint32_t footer_crc = 0;
  char magic[12] = {};
};
static_assert(sizeof(Footer) == 216);
static_assert(offsetof(Footer, footer_crc) == 200);

/// Header bytes after the magic's NUL (10-15) are reserved zeros. Byte 10
/// set to 1 marked files from earlier versions that carried a source-range
/// index region before the footer; Open names that case.
constexpr size_t kReservedHeaderStart = sizeof(kColumnarMagic);
constexpr unsigned char kRetiredSourceIndexFlag = 1;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// Chained FNV-1a 64 (util/hash.h only offers the one-shot form).
uint64_t Fnv1a64Chain(const void* data, size_t len, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Buffered section-aware output stream over a stdio FILE. Tracks the file
/// offset, the running per-section CRC, and the whole-body content hash;
/// the first short write latches `failed`.
struct OutStream {
  std::FILE* f = nullptr;
  uint64_t offset = 0;
  uint32_t crc = 0;
  uint64_t fnv = kFnvOffset;
  bool failed = false;

  void Write(const void* p, size_t len) {
    if (failed || len == 0) return;
    if (std::fwrite(p, 1, len, f) != len) {
      failed = true;
      return;
    }
    crc = Crc32(p, len, crc);
    fnv = Fnv1a64Chain(p, len, fnv);
    offset += len;
  }

  /// Zero-pads the stream to 8-byte alignment (between sections).
  void Pad() {
    static const char kZeros[8] = {};
    if (offset % 8 != 0) Write(kZeros, 8 - offset % 8);
  }
};

/// Flush buffers to spill files every 256K records: ~6 MiB of column
/// buffers, so writer RAM stays flat however many records stream through.
constexpr size_t kSpillBatchRecords = size_t{1} << 18;

constexpr size_t kColumnElemSize[5] = {8, 4, 4, 4, 4};

}  // namespace

ColumnarWriter::ColumnarWriter(std::string path) : path_(std::move(path)) {
  const std::string pid = std::to_string(::getpid());
  for (size_t i = 0; i < 5; ++i) {
    spill_path_[i] = path_ + ".col" + std::to_string(i) + ".tmp." + pid;
  }
}

ColumnarWriter::~ColumnarWriter() {
  if (!finished_) RemoveSpills();
}

void ColumnarWriter::RemoveSpills() {
  for (size_t i = 0; i < 5; ++i) {
    if (spill_[i] != nullptr) {
      std::fclose(spill_[i]);
      spill_[i] = nullptr;
    }
    std::remove(spill_path_[i].c_str());
  }
}

void ColumnarWriter::AddRecord(uint32_t url_code, uint32_t subject,
                               uint32_t predicate, uint32_t object,
                               double confidence) {
  conf_buf_.push_back(confidence);
  code_buf_[0].push_back(url_code);
  code_buf_[1].push_back(subject);
  code_buf_[2].push_back(predicate);
  code_buf_[3].push_back(object);
  max_url_code_ = std::max(max_url_code_, url_code);
  max_term_code_ =
      std::max({max_term_code_, subject, predicate, object});
  ++num_records_;
  if (conf_buf_.size() >= kSpillBatchRecords) spill_status_ = FlushBuffers();
}

Status ColumnarWriter::FlushBuffers() {
  if (!spill_status_.ok()) return spill_status_;
  for (size_t i = 0; i < 5; ++i) {
    if (spill_[i] == nullptr) {
      spill_[i] = std::fopen(spill_path_[i].c_str(), "wb");
      if (spill_[i] == nullptr) {
        return Status::IoError("open spill " + spill_path_[i] + ": " +
                               std::strerror(errno));
      }
    }
    const void* data;
    size_t len;
    if (i == 0) {
      data = conf_buf_.data();
      len = conf_buf_.size() * sizeof(double);
    } else {
      data = code_buf_[i - 1].data();
      len = code_buf_[i - 1].size() * sizeof(uint32_t);
    }
    if (len != 0 && std::fwrite(data, 1, len, spill_[i]) != len) {
      return Status::IoError("write spill " + spill_path_[i] + ": " +
                             std::strerror(errno));
    }
  }
  conf_buf_.clear();
  for (auto& buf : code_buf_) buf.clear();
  return Status::OK();
}

Status ColumnarWriter::Finish(size_t num_terms, const DictFn& term,
                              size_t num_urls, const DictFn& url) {
  if (finished_) {
    return Status::FailedPrecondition("ColumnarWriter::Finish called twice");
  }
  finished_ = true;
  if (!spill_status_.ok()) {
    RemoveSpills();
    return spill_status_;
  }
  if (num_records_ > 0 &&
      (max_term_code_ >= num_terms || max_url_code_ >= num_urls)) {
    RemoveSpills();
    return Status::InvalidArgument(
        "columnar record code out of dictionary range");
  }

  // Fault site: ENOSPC-style failure before anything is staged — the same
  // up-front contract as AtomicWriteFile.
  if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteIoWriteFail, path_)) {
    RemoveSpills();
    return Status::IoError("injected write failure: " + path_);
  }

  // Close spill files for writing; they are re-read below.
  for (size_t i = 0; i < 5; ++i) {
    if (spill_[i] != nullptr) {
      const bool bad = std::fclose(spill_[i]) != 0;
      spill_[i] = nullptr;
      if (bad) {
        RemoveSpills();
        return Status::IoError("close spill " + spill_path_[i]);
      }
    }
  }

  const std::string temp = AtomicTempPath(path_);
  OutStream out;
  out.f = std::fopen(temp.c_str(), "wb");
  if (out.f == nullptr) {
    RemoveSpills();
    return Status::IoError("open " + temp + ": " + std::strerror(errno));
  }
  auto fail = [&](Status status) {
    std::fclose(out.f);
    std::remove(temp.c_str());
    RemoveSpills();
    return status;
  };

  // Header: magic, zero pad to 16 bytes.
  char header[kColumnarHeaderSize] = {};
  std::memcpy(header, kColumnarMagic, sizeof(kColumnarMagic));
  out.Write(header, sizeof(header));

  Footer footer;
  footer.num_records = num_records_;
  footer.num_terms = num_terms;
  footer.num_urls = num_urls;

  // Dictionary sections: u64 count, u64 offsets[count+1], blob.
  std::vector<uint64_t> offsets;
  auto write_dict = [&](size_t section, size_t count, const DictFn& entry) {
    out.Pad();
    out.crc = 0;
    footer.sections[section].offset = out.offset;
    const uint64_t count64 = count;
    out.Write(&count64, sizeof(count64));
    offsets.assign(1, 0);
    offsets.reserve(count + 1);
    for (size_t i = 0; i < count; ++i) {
      offsets.push_back(offsets.back() + entry(i).size());
    }
    out.Write(offsets.data(), offsets.size() * sizeof(uint64_t));
    for (size_t i = 0; i < count; ++i) {
      const std::string_view s = entry(i);
      out.Write(s.data(), s.size());
    }
    footer.sections[section].size = out.offset - footer.sections[section].offset;
    footer.sections[section].crc = out.crc;
  };
  write_dict(kSectionTerms, num_terms, term);
  write_dict(kSectionUrls, num_urls, url);

  // Record columns: stream each spill file through, then the in-memory
  // tail buffer that never spilled.
  std::vector<char> chunk(size_t{1} << 20);
  for (size_t col = 0; col < 5; ++col) {
    out.Pad();
    out.crc = 0;
    const size_t section = kSectionConfidence + col;
    footer.sections[section].offset = out.offset;
    struct stat st;
    if (::stat(spill_path_[col].c_str(), &st) == 0) {
      std::FILE* in = std::fopen(spill_path_[col].c_str(), "rb");
      if (in == nullptr) {
        return fail(Status::IoError("reopen spill " + spill_path_[col]));
      }
      size_t got;
      while ((got = std::fread(chunk.data(), 1, chunk.size(), in)) > 0) {
        out.Write(chunk.data(), got);
      }
      const bool bad = std::ferror(in) != 0;
      std::fclose(in);
      if (bad) return fail(Status::IoError("read spill " + spill_path_[col]));
    }
    if (col == 0) {
      out.Write(conf_buf_.data(), conf_buf_.size() * sizeof(double));
    } else {
      out.Write(code_buf_[col - 1].data(),
                code_buf_[col - 1].size() * sizeof(uint32_t));
    }
    footer.sections[section].size =
        out.offset - footer.sections[section].offset;
    footer.sections[section].crc = out.crc;
    if (footer.sections[section].size != num_records_ * kColumnElemSize[col]) {
      return fail(Status::Internal("columnar column size mismatch (spill "
                                   "file tampered with mid-write?)"));
    }
  }
  out.Pad();

  footer.content_hash = out.fnv;
  std::memcpy(footer.magic, kColumnarMagic, sizeof(kColumnarMagic));
  footer.footer_crc = Crc32(&footer, offsetof(Footer, footer_crc));
  out.Write(&footer, sizeof(footer));

  if (out.failed) {
    return fail(Status::IoError("write " + temp + ": " +
                                std::strerror(errno)));
  }
  if (std::fflush(out.f) != 0) {
    return fail(Status::IoError("flush " + temp));
  }

#ifdef MIDAS_FAULT_INJECTION
  // Fault site: torn write — truncate the staged temp file mid-body and
  // leave it behind, simulating a crash before rename. The destination is
  // never touched; readers must reject the truncated temp.
  if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteIoTornWrite, path_)) {
    const uint64_t cut = fault::FaultInjector::Global().DrawOffset(
        fault::kSiteIoTornWrite, path_, out.offset);
    const bool bad = ::ftruncate(::fileno(out.f), static_cast<off_t>(cut)) != 0;
    std::fclose(out.f);
    RemoveSpills();
    if (bad) return Status::IoError("injected torn write: ftruncate failed");
    return Status::IoError("injected torn write: " + temp);
  }
#endif

  if (::fsync(::fileno(out.f)) != 0) {
    return fail(Status::IoError("fsync " + temp));
  }
  if (std::fclose(out.f) != 0) {
    std::remove(temp.c_str());
    RemoveSpills();
    return Status::IoError("close " + temp);
  }
  if (std::rename(temp.c_str(), path_.c_str()) != 0) {
    std::remove(temp.c_str());
    RemoveSpills();
    return Status::IoError("rename " + temp + " -> " + path_ + ": " +
                           std::strerror(errno));
  }
  Status parent = FsyncPath(ParentDir(path_));
  if (!parent.ok()) {
    RemoveSpills();
    return parent;
  }
  RemoveSpills();
  content_fingerprint_ = footer.content_hash;
  return Status::OK();
}

void ColumnarReader::Close() {
  if (base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), map_size_);
  }
  base_ = nullptr;
  map_size_ = 0;
  num_records_ = num_terms_ = num_urls_ = 0;
  content_fingerprint_ = 0;
  term_offsets_ = url_offsets_ = nullptr;
  terms_blob_ = urls_blob_ = nullptr;
  confidences_ = nullptr;
  url_codes_ = subjects_ = predicates_ = objects_ = nullptr;
}

Status ColumnarReader::Open(const std::string& path,
                            const ColumnarReadOptions& options) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("stat " + path);
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < kColumnarHeaderSize + sizeof(Footer)) {
    ::close(fd);
    return Status::Corruption(path + ": too short for a MIDASCOL1 file (" +
                              std::to_string(file_size) + " bytes)");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IoError("mmap " + path + ": " + std::strerror(errno));
  }
  base_ = static_cast<const char*>(map);
  map_size_ = file_size;

  auto corrupt = [&](const std::string& msg) {
    Close();
    return Status::Corruption(path + ": " + msg);
  };

  if (std::memcmp(base_, kColumnarMagic, sizeof(kColumnarMagic)) != 0) {
    return corrupt("bad header magic");
  }
  // Nonzero reserved header bytes are rejected so every header byte stays
  // semantic (the bit-flip fuzz relies on that).
  if (static_cast<unsigned char>(base_[kReservedHeaderStart]) ==
      kRetiredSourceIndexFlag) {
    return corrupt(
        "carries the retired source-range index (header byte 10); "
        "re-write it from its TSV dump with `midas convert`");
  }
  for (size_t i = kReservedHeaderStart; i < kColumnarHeaderSize; ++i) {
    if (base_[i] != 0) return corrupt("nonzero reserved header byte");
  }
  Footer footer;
  std::memcpy(&footer, base_ + file_size - sizeof(Footer), sizeof(Footer));
  char want_magic[sizeof(footer.magic)] = {};
  std::memcpy(want_magic, kColumnarMagic, sizeof(kColumnarMagic));
  if (std::memcmp(footer.magic, want_magic, sizeof(want_magic)) != 0) {
    return corrupt("bad footer magic (torn write?)");
  }
  if (Crc32(&footer, offsetof(Footer, footer_crc)) != footer.footer_crc) {
    return corrupt("footer CRC mismatch (torn write?)");
  }
  if (footer.num_terms > UINT32_MAX || footer.num_urls > UINT32_MAX) {
    return corrupt("dictionary count exceeds u32 code space");
  }

  // Section table: 8-aligned, in order, non-overlapping, inside the body.
  const uint64_t body_end = file_size - sizeof(Footer);
  uint64_t prev_end = kColumnarHeaderSize;
  for (size_t s = 0; s < kColumnarNumSections; ++s) {
    const SectionInfo& info = footer.sections[s];
    if (info.offset % 8 != 0 || info.offset < prev_end ||
        info.size > body_end || info.offset > body_end - info.size) {
      return corrupt("section " + std::to_string(s) + " out of bounds");
    }
    prev_end = info.offset + info.size;
  }

  // Only alignment padding (< 8 bytes) sits between the last section and
  // the footer.
  if (((prev_end + 7) & ~uint64_t{7}) != body_end) {
    return corrupt("unaccounted bytes between sections and footer");
  }

  const uint64_t n = footer.num_records;
  for (size_t col = 0; col < 5; ++col) {
    if (footer.sections[kSectionConfidence + col].size !=
        n * kColumnElemSize[col]) {
      return corrupt("column section size does not match record count");
    }
  }

  // Dictionary sections: count + offsets + blob, offsets monotone. The
  // monotonicity pass is O(terms) — cheap next to the record columns — and
  // mandatory: term()/url() build string_views from adjacent offsets.
  auto open_dict = [&](size_t section, uint64_t want_count,
                       const uint64_t** offsets_out, const char** blob_out) {
    const SectionInfo& info = footer.sections[section];
    if (info.size < (want_count + 2) * sizeof(uint64_t)) return false;
    const char* p = base_ + info.offset;
    uint64_t count;
    std::memcpy(&count, p, sizeof(count));
    if (count != want_count) return false;
    const auto* offsets = reinterpret_cast<const uint64_t*>(p + 8);
    const uint64_t blob_len = info.size - (want_count + 2) * sizeof(uint64_t);
    if (offsets[0] != 0 || offsets[want_count] != blob_len) return false;
    for (uint64_t i = 0; i < want_count; ++i) {
      if (offsets[i] > offsets[i + 1]) return false;
    }
    *offsets_out = offsets;
    *blob_out = p + (want_count + 2) * sizeof(uint64_t);
    return true;
  };
  if (!open_dict(kSectionTerms, footer.num_terms, &term_offsets_,
                 &terms_blob_)) {
    return corrupt("malformed term dictionary section");
  }
  if (!open_dict(kSectionUrls, footer.num_urls, &url_offsets_, &urls_blob_)) {
    return corrupt("malformed url dictionary section");
  }

  confidences_ = reinterpret_cast<const double*>(
      base_ + footer.sections[kSectionConfidence].offset);
  url_codes_ = reinterpret_cast<const uint32_t*>(
      base_ + footer.sections[kSectionUrlCode].offset);
  subjects_ = reinterpret_cast<const uint32_t*>(
      base_ + footer.sections[kSectionSubject].offset);
  predicates_ = reinterpret_cast<const uint32_t*>(
      base_ + footer.sections[kSectionPredicate].offset);
  objects_ = reinterpret_cast<const uint32_t*>(
      base_ + footer.sections[kSectionObject].offset);

  num_records_ = footer.num_records;
  num_terms_ = footer.num_terms;
  num_urls_ = footer.num_urls;
  content_fingerprint_ = footer.content_hash;

  if (options.verify_checksums) {
    for (size_t s = 0; s < kColumnarNumSections; ++s) {
      const SectionInfo& info = footer.sections[s];
      if (Crc32(base_ + info.offset, info.size) != info.crc) {
        return corrupt("section " + std::to_string(s) + " CRC mismatch");
      }
    }
    // Range-check every record code: accessors index straight into the
    // dictionaries, so an out-of-range code in an unchecked file would be
    // an out-of-bounds read downstream.
    const auto terms32 = static_cast<uint32_t>(num_terms_);
    const auto urls32 = static_cast<uint32_t>(num_urls_);
    for (uint64_t i = 0; i < n; ++i) {
      if (url_codes_[i] >= urls32 || subjects_[i] >= terms32 ||
          predicates_[i] >= terms32 || objects_[i] >= terms32) {
        return corrupt("record code out of dictionary range");
      }
    }
  }
  return Status::OK();
}

bool SniffColumnarMagic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char header[kColumnarHeaderSize];
  const size_t got = std::fread(header, 1, sizeof(header), f);
  std::fclose(f);
  return got == sizeof(header) &&
         std::memcmp(header, kColumnarMagic, sizeof(kColumnarMagic)) == 0;
}

}  // namespace store
}  // namespace midas
