#ifndef MIDAS_EXTRACT_COLUMNAR_IO_H_
#define MIDAS_EXTRACT_COLUMNAR_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "midas/extract/dump_io.h"
#include "midas/extract/extraction.h"
#include "midas/rdf/dictionary.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace extract {

/// RDF-aware glue over the store-layer MIDASCOL1 format (store/columnar.h):
/// an extraction dump's triples are already dictionary-encoded, so the
/// columnar file stores the dictionary once plus four u32 code columns and
/// the confidence column — and a load on a fresh dictionary re-interns the
/// dictionary in id order, reproducing the exact TermIds of the dump that
/// was saved. Everything downstream (FactTable slices, profits, dedup
/// hashes) is therefore bit-identical between a TSV load and a columnar
/// round-trip of it; tests/extract/columnar_roundtrip_test.cc pins this.

/// True iff `path` starts with the MIDASCOL1 magic (cheap sniff).
bool IsColumnarDump(const std::string& path);

/// Saves `dump` in columnar form, crash-safely (see ColumnarWriter).
/// The dump's full dictionary is written in id order; URLs are
/// dictionary-encoded separately in first-appearance order.
Status SaveColumnarDump(const std::string& path, const ExtractionDump& dump);

/// Loads a columnar dump into `dump`, creating a fresh dictionary unless
/// `dump->dict` is set (codes are remapped through Intern either way; on a
/// fresh dictionary that reproduces the saved ids exactly). Fills `stats`
/// when non-null. `fingerprint`, when non-null, receives the file's content
/// hash (checkpoint fingerprints bind to it).
Status LoadColumnarDump(const std::string& path, ExtractionDump* dump,
                        LoadStats* stats, uint64_t* fingerprint);

/// Fast path for discovery: columnar file -> confidence-filtered
/// web::Corpus without materializing per-fact URL strings or re-parsing
/// terms. The file is opened with every check (section CRCs and record-code
/// bounds) before any payload is decoded; the file's columns then go
/// straight to BuildCorpusFromColumns, the build BuildCorpus uses. `dict`,
/// when non-null, seeds the corpus dictionary (shared KB dictionaries);
/// null means a fresh one, in which case the file's code arrays are
/// adopted verbatim as TermIds — every process that fresh-loads the same
/// file agrees on ids. The corpus owns copies of every term. `fingerprint`,
/// when non-null, receives the file's content hash.
Status LoadColumnarCorpus(const std::string& path, double threshold,
                          std::shared_ptr<rdf::Dictionary> dict,
                          web::Corpus* corpus, uint64_t* fingerprint);

}  // namespace extract
}  // namespace midas

#endif  // MIDAS_EXTRACT_COLUMNAR_IO_H_
