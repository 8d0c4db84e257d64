#include "midas/eval/metrics.h"

#include <unordered_set>

namespace midas {
namespace eval {

namespace {
using TripleSet = std::unordered_set<rdf::Triple, rdf::TripleHash>;

TripleSet ToSet(const std::vector<rdf::Triple>& v) {
  return TripleSet(v.begin(), v.end());
}

double JaccardSets(const TripleSet& a, const TripleSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const TripleSet& small = a.size() <= b.size() ? a : b;
  const TripleSet& large = a.size() <= b.size() ? b : a;
  size_t inter = 0;
  for (const rdf::Triple& t : small) {
    if (large.count(t)) ++inter;
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// Internal matcher shared by ScoreAgainstSilver and the PR curve: for each
// returned slice (in rank order) finds the best unconsumed silver slice.
// Returns, per returned slice, the matched silver index or SIZE_MAX.
std::vector<size_t> MatchSlices(
    const std::vector<core::DiscoveredSlice>& returned,
    const synth::SilverStandard& silver, double threshold) {
  std::vector<TripleSet> silver_sets;
  silver_sets.reserve(silver.slices.size());
  for (const auto& s : silver.slices) silver_sets.push_back(ToSet(s.facts));

  std::vector<char> consumed(silver.slices.size(), 0);
  std::vector<size_t> match(returned.size(), SIZE_MAX);
  for (size_t i = 0; i < returned.size(); ++i) {
    TripleSet ret = ToSet(returned[i].facts);
    double best = threshold;
    size_t best_j = SIZE_MAX;
    for (size_t j = 0; j < silver_sets.size(); ++j) {
      if (consumed[j]) continue;
      double jac = JaccardSets(ret, silver_sets[j]);
      if (jac > best) {
        best = jac;
        best_j = j;
      }
    }
    if (best_j != SIZE_MAX) {
      consumed[best_j] = 1;
      match[i] = best_j;
    }
  }
  return match;
}

}  // namespace

PrfScores ScoreAgainstSilver(const std::vector<core::DiscoveredSlice>& returned,
                             const synth::SilverStandard& silver,
                             double jaccard_threshold) {
  std::vector<size_t> match = MatchSlices(returned, silver, jaccard_threshold);
  PrfScores scores;
  scores.returned = returned.size();
  scores.expected = silver.slices.size();
  for (size_t m : match) {
    if (m != SIZE_MAX) ++scores.matched;
  }
  scores.precision = scores.returned == 0
                         ? 0.0
                         : static_cast<double>(scores.matched) /
                               static_cast<double>(scores.returned);
  scores.recall = scores.expected == 0
                      ? 0.0
                      : static_cast<double>(scores.matched) /
                            static_cast<double>(scores.expected);
  scores.f_measure =
      (scores.precision + scores.recall) == 0.0
          ? 0.0
          : 2.0 * scores.precision * scores.recall /
                (scores.precision + scores.recall);
  return scores;
}

std::vector<PrPoint> PrecisionRecallCurve(
    const std::vector<core::DiscoveredSlice>& returned,
    const synth::SilverStandard& silver, double jaccard_threshold) {
  std::vector<size_t> match = MatchSlices(returned, silver, jaccard_threshold);
  std::vector<PrPoint> curve;
  curve.reserve(returned.size());
  size_t matched = 0;
  for (size_t i = 0; i < returned.size(); ++i) {
    if (match[i] != SIZE_MAX) ++matched;
    PrPoint point;
    point.k = i + 1;
    point.precision =
        static_cast<double>(matched) / static_cast<double>(i + 1);
    point.recall = silver.slices.empty()
                       ? 0.0
                       : static_cast<double>(matched) /
                             static_cast<double>(silver.slices.size());
    curve.push_back(point);
  }
  return curve;
}

}  // namespace eval
}  // namespace midas
