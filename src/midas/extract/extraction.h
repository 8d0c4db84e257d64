#ifndef MIDAS_EXTRACT_EXTRACTION_H_
#define MIDAS_EXTRACT_EXTRACTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/web/web_source.h"

namespace midas {
namespace extract {

/// One record emitted by an automated knowledge extraction pipeline
/// (KnowledgeVault / ReVerb / NELL style): a fact, the web page it came
/// from, and the extractor's confidence.
struct ExtractedFact {
  /// Normalized source page URL.
  std::string url;
  /// Dictionary-encoded fact.
  rdf::Triple triple;
  /// Extractor confidence in [0, 1].
  double confidence = 1.0;
};

/// A full extraction dump: the shared dictionary plus all records.
struct ExtractionDump {
  std::shared_ptr<rdf::Dictionary> dict;
  std::vector<ExtractedFact> facts;
};

/// The paper only trusts extractions "with confidence value above 0.7"
/// (KnowledgeVault setting); ReVerb and NELL dumps ship pre-filtered at
/// 0.75.
inline constexpr double kKnowledgeVaultConfidenceThreshold = 0.7;
inline constexpr double kOpenIeConfidenceThreshold = 0.75;

/// A dump's records as parallel columns: record i came from URL
/// `urls[url_codes[i]]` with confidence `confidences[i]` and states
/// (subjects[i], predicates[i], objects[i]).
struct DumpColumns {
  uint64_t size = 0;
  const uint32_t* url_codes = nullptr;
  const double* confidences = nullptr;
  const uint32_t* subjects = nullptr;
  const uint32_t* predicates = nullptr;
  const uint32_t* objects = nullptr;
};

/// The corpus build every dump load goes through. Records with confidence
/// > `threshold` survive. `urls` holds the normalized URL of each url code;
/// codes whose URLs are equal share one source. Sources appear in the
/// order of their first surviving record, and each source's facts in
/// record order, with duplicate (url, triple) pairs dropped. The term
/// columns hold TermIds of `corpus`'s dictionary, or codes that `remap`
/// (when non-empty) maps injectively to them. `corpus` must hold no
/// sources, and `records.size` must fit in 32 bits. The corpus dedup index
/// is left empty: call Corpus::RebuildDedupIndex before adding facts.
void BuildCorpusFromColumns(const DumpColumns& records,
                            const std::vector<std::string>& urls,
                            const std::vector<rdf::TermId>& remap,
                            double threshold, web::Corpus* corpus);

/// Assembles the slice-discovery input corpus from extraction records
/// whose URLs are already normalized (BuildCorpusFromColumns semantics).
web::Corpus BuildCorpus(const ExtractionDump& dump, double threshold);

/// One extraction record with un-interned terms — the wire form an online
/// ingest delivers (the serve daemon's /ingest body) before the corpus
/// dictionary has seen it.
struct RawExtractedFact {
  std::string url;
  std::string subject;
  std::string predicate;
  std::string object;
  double confidence = 1.0;
};

/// Outcome of applying one ingest delta to a live corpus.
struct DeltaStats {
  /// Facts actually inserted.
  size_t added = 0;
  /// (url, triple) pairs the corpus already had.
  size_t duplicates = 0;
  /// Records dropped by the confidence filter (confidence <= threshold,
  /// matching BuildCorpus).
  size_t below_threshold = 0;
  /// Normalized URLs that gained at least one fact, sorted and unique —
  /// exactly the sources a subsequent framework run must re-detect.
  std::vector<std::string> touched_urls;
};

/// Applies extraction records to a live corpus in place: normalizes each
/// URL, interns the terms (the dictionary only grows, so existing term ids
/// — and with them any detection memo — stay valid), and drops duplicates
/// and low-confidence records. The corpus dedup index must be consistent:
/// call Corpus::RebuildDedupIndex once after BuildCorpus* or a columnar
/// load.
DeltaStats ApplyFactDelta(const std::vector<RawExtractedFact>& delta,
                          double threshold, web::Corpus* corpus);

}  // namespace extract
}  // namespace midas

#endif  // MIDAS_EXTRACT_EXTRACTION_H_
