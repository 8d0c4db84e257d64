#ifndef MIDAS_EXTRACT_COLUMNAR_IO_H_
#define MIDAS_EXTRACT_COLUMNAR_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "midas/extract/dump_io.h"
#include "midas/extract/extraction.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/store/columnar.h"
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
/// terms. Facts with confidence > `threshold` survive (same predicate as
/// BuildCorpus). `dict`, when non-null, seeds the corpus dictionary (shared
/// KB dictionaries); null means a fresh one, in which case the file's code
/// arrays are adopted verbatim as TermIds. `fingerprint`, when non-null,
/// receives the file's content hash.
Status LoadColumnarCorpus(const std::string& path, double threshold,
                          std::shared_ptr<rdf::Dictionary> dict,
                          web::Corpus* corpus, uint64_t* fingerprint);

/// Knobs shared by the reader-based corpus loaders below.
struct ColumnarLoadOptions {
  /// Facts with confidence > threshold survive (BuildCorpus's predicate).
  double threshold = 0.0;
  /// Seeds the corpus dictionary; null means a fresh one, in which case the
  /// file's code arrays are adopted verbatim as TermIds — every process
  /// that fresh-loads the same file agrees on ids.
  std::shared_ptr<rdf::Dictionary> dict;
  /// Worker threads for the full load (LoadColumnarCorpusFromReader). 0/1 =
  /// serial. >1 decodes source runs in parallel on a ThreadPool and merges
  /// deterministically — bit-identical to the serial path. Files without
  /// source-contiguous records fall back to the serial path. Subset loads
  /// ignore this (they only touch a sliver of the file).
  size_t num_threads = 1;
};

/// LoadColumnarCorpus over an already-open reader. Honors a lazily-verified
/// reader: section CRCs and record-code bounds are settled here (memoized,
/// parallelized across threads when num_threads > 1) before any payload is
/// trusted. The corpus owns copies of every term, so the reader may close
/// once this returns.
Status LoadColumnarCorpusFromReader(store::ColumnarReader* reader,
                                    const ColumnarLoadOptions& options,
                                    web::Corpus* corpus);

/// Materializes only the sources of `url_codes` (file url-dictionary codes,
/// any order, duplicates ignored): record columns are touched only inside
/// the selected codes' index runs and terms are interned on first use, so
/// I/O, dedup, and dictionary cost all scale with the subset, not the
/// file. With a lazily-verified reader no whole-section checksum is paid
/// at all: the dictionary offset tables were validated structurally at
/// open, and the touched records get bounds checks (see
/// ColumnarReadOptions::lazy_verify for the contract). Requires the
/// source-range index (InvalidArgument otherwise — `midas convert
/// --reindex` adds one). Seeded with the file's full dictionary
/// (`options.dict`), the resulting corpus is bit-identical to loading the
/// whole file and keeping the selected codes' facts, up to source indices
/// (selected sources appear in record order); with a fresh dictionary the
/// TermIds land in first-use order instead (same term strings). Codes
/// whose URLs normalize equal share a source either way; select canon
/// groups together to match a filtered full load exactly.
Status LoadColumnarCorpusSubset(store::ColumnarReader* reader,
                                const std::vector<uint32_t>& url_codes,
                                const ColumnarLoadOptions& options,
                                web::Corpus* corpus);

}  // namespace extract
}  // namespace midas

#endif  // MIDAS_EXTRACT_COLUMNAR_IO_H_
