#ifndef MIDAS_EXTRACT_EXTRACTOR_SIM_H_
#define MIDAS_EXTRACT_EXTRACTOR_SIM_H_

#include <string>
#include <vector>

#include "midas/extract/extraction.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/util/random.h"

namespace midas {
namespace extract {

/// The true content of one web page, as the synthetic web holds it. The
/// extraction simulator degrades this into what an automated pipeline would
/// actually emit.
struct PageContent {
  std::string url;
  std::vector<rdf::Triple> facts;
  /// Optional per-fact extraction salience, parallel to `facts` (empty =
  /// all 1.0). The effective recall of fact i is min(1, recall ·
  /// salience[i]). Type/category assertions sit in page titles and
  /// infoboxes, so real extractors recover them far more reliably than
  /// long-tail attributes; generators mark such facts with salience > 1.
  std::vector<double> salience;
};

/// Noise profile of a simulated automated extraction pipeline. The defaults
/// model the regime the paper describes: low per-source recall (TAC-KBP
/// systems "can hardly achieve above 0.3 recall") with confidence scores
/// that mostly separate true from spurious extractions but overlap enough
/// that thresholding loses real facts too.
struct ExtractorProfile {
  /// Probability that a true page fact is extracted at all.
  double recall = 0.3;
  /// Spurious extractions emitted per true page fact (corrupted object,
  /// corrupted predicate, or entirely random triple).
  double noise_rate = 0.25;
  /// Confidence distribution for correct extractions: clamped
  /// Normal(mean, stddev).
  double true_conf_mean = 0.90;
  double true_conf_stddev = 0.06;
  /// Confidence distribution for spurious extractions.
  double noise_conf_mean = 0.45;
  double noise_conf_stddev = 0.18;
};

/// Simulates an automated extraction pipeline over synthetic pages
/// (substitute for KnowledgeVault's extractors; see DESIGN.md §1). All
/// randomness flows through the caller's Rng, so dumps are reproducible.
class ExtractionSimulator {
 public:
  /// The simulator mints corrupted terms into `dict`.
  ExtractionSimulator(ExtractorProfile profile, rdf::Dictionary* dict);

  /// Runs the pipeline over one page, appending records to `out`.
  void ExtractPage(const PageContent& page, Rng* rng,
                   std::vector<ExtractedFact>* out) const;

  /// Runs the pipeline over a whole site, releasing each page once it has
  /// been extracted (move the pages in to bound peak memory).
  ExtractionDump ExtractAll(std::vector<PageContent> pages,
                            std::shared_ptr<rdf::Dictionary> dict,
                            Rng* rng) const;

  const ExtractorProfile& profile() const { return profile_; }

 private:
  /// Draws a confidence from a clamped normal.
  double DrawConfidence(double mean, double stddev, Rng* rng) const;

  /// Produces a spurious variant of `t` (corrupt object / predicate / both).
  rdf::Triple CorruptTriple(const rdf::Triple& t, Rng* rng) const;

  ExtractorProfile profile_;
  rdf::Dictionary* dict_;
};

}  // namespace extract
}  // namespace midas

#endif  // MIDAS_EXTRACT_EXTRACTOR_SIM_H_
