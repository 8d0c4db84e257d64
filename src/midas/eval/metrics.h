#ifndef MIDAS_EVAL_METRICS_H_
#define MIDAS_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "midas/core/types.h"
#include "midas/rdf/triple.h"
#include "midas/synth/silver_standard.h"

namespace midas {
namespace eval {

/// The paper's slice-equivalence rule: two slices are the same result if
/// the Jaccard similarity of their fact sets (duplicates ignored) is above
/// this threshold.
inline constexpr double kJaccardEquivalence = 0.95;

/// Precision / recall / F-measure of a returned slice list against a
/// silver standard.
struct PrfScores {
  double precision = 0.0;
  double recall = 0.0;
  double f_measure = 0.0;
  size_t matched = 0;   // returned slices matching some silver slice
  size_t returned = 0;  // |returned|
  size_t expected = 0;  // |silver|
};

/// Greedy one-to-one matching: each returned slice matches at most one
/// silver slice (the best Jaccard above threshold), and each silver slice
/// is consumed once. Precision = matched/returned, recall =
/// matched-silver/expected, F = harmonic mean.
PrfScores ScoreAgainstSilver(const std::vector<core::DiscoveredSlice>& returned,
                             const synth::SilverStandard& silver,
                             double jaccard_threshold = kJaccardEquivalence);

/// One point of a precision-recall curve (prefix of the ranked output).
struct PrPoint {
  size_t k = 0;
  double precision = 0.0;
  double recall = 0.0;
};

/// Precision-recall curve over the ranked output: point i scores the top
/// (i+1) returned slices. `returned` must already be ranked (descending
/// score).
std::vector<PrPoint> PrecisionRecallCurve(
    const std::vector<core::DiscoveredSlice>& returned,
    const synth::SilverStandard& silver,
    double jaccard_threshold = kJaccardEquivalence);

}  // namespace eval
}  // namespace midas

#endif  // MIDAS_EVAL_METRICS_H_
