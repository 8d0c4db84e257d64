#ifndef MIDAS_EXTRACT_DUMP_IO_H_
#define MIDAS_EXTRACT_DUMP_IO_H_

#include <string>
#include <string_view>

#include "midas/extract/extraction.h"
#include "midas/util/status.h"

namespace midas {
namespace extract {

/// Extraction dumps are exchanged as 5-column TSV:
///   url \t subject \t predicate \t object \t confidence
/// Lines starting with '#' are comments. This is the de-facto shape of
/// public OpenIE dumps (ReVerb ships the same columns plus extras we do not
/// need).

/// How LoadDump treats malformed rows (wrong field count, unparsable or
/// out-of-range confidence).
struct LoadOptions {
  /// true: the first malformed row aborts the load with Corruption (the
  /// historical behavior). false: malformed rows are quarantined — counted,
  /// skipped, and reported via LoadStats — and the load succeeds with every
  /// well-formed row. Permissive mode is for real-world OpenIE dumps, where
  /// a handful of mangled lines should not cost the whole corpus.
  bool strict = true;
};

/// Per-load bookkeeping.
struct LoadStats {
  /// Well-formed rows loaded into the dump.
  size_t rows_loaded = 0;
  /// Malformed rows skipped (always 0 under strict, which aborts instead).
  size_t rows_quarantined = 0;
};

/// Loads a dump, creating a fresh dictionary unless `dump->dict` is set.
Status LoadDump(const std::string& path, ExtractionDump* dump);

/// Loads a dump under `options`; fills `stats` when non-null.
Status LoadDump(const std::string& path, const LoadOptions& options,
                ExtractionDump* dump, LoadStats* stats);

/// Saves a dump.
Status SaveDump(const std::string& path, const ExtractionDump& dump);

/// Appends one dump row, as SaveDump writes it, to `out`.
void AppendDumpRow(std::string_view url, const rdf::Triple& triple,
                   double confidence, const rdf::Dictionary& dict,
                   std::string* out);

}  // namespace extract
}  // namespace midas

#endif  // MIDAS_EXTRACT_DUMP_IO_H_
