#include "midas/eval/summary.h"

#include <algorithm>
#include <unordered_set>

#include "midas/rdf/triple.h"
#include "midas/util/string_util.h"
#include "midas/web/url.h"

namespace midas {
namespace eval {

namespace {

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  double idx = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

SliceSetSummary SummarizeSlices(
    const std::vector<core::DiscoveredSlice>& slices) {
  SliceSetSummary s;
  s.num_slices = slices.size();
  if (slices.empty()) return s;

  std::unordered_set<rdf::Triple, rdf::TripleHash> distinct;
  std::vector<double> profits;
  profits.reserve(slices.size());
  s.min_facts = slices[0].num_facts;

  // Per-fact novelty is not stored on a slice (only the count), so
  // distinct_new_facts is the exact union over fully-new slices — a lower
  // bound when slices mix known and new facts. Pass a KB and recount if
  // the exact figure matters.
  std::unordered_set<rdf::Triple, rdf::TripleHash> distinct_new;

  for (const auto& slice : slices) {
    s.total_facts += slice.num_facts;
    s.total_new_facts += slice.num_new_facts;
    s.total_profit += slice.profit;
    s.min_facts = std::min(s.min_facts, slice.num_facts);
    s.max_facts = std::max(s.max_facts, slice.num_facts);
    profits.push_back(slice.profit);
    s.by_url_depth[web::UrlDepth(slice.source_url)]++;

    bool all_new = slice.num_new_facts == slice.num_facts;
    for (const auto& fact : slice.facts) {
      distinct.insert(fact);
      if (all_new) distinct_new.insert(fact);
    }
  }
  s.distinct_facts = distinct.size();
  s.distinct_new_facts = distinct_new.size();
  s.mean_facts = static_cast<double>(s.total_facts) /
                 static_cast<double>(s.num_slices);

  std::sort(profits.begin(), profits.end());
  s.profit_p25 = Percentile(profits, 0.25);
  s.profit_p50 = Percentile(profits, 0.50);
  s.profit_p75 = Percentile(profits, 0.75);
  return s;
}

std::string SliceSetSummary::ToString() const {
  std::string out;
  out += StringPrintf("slices: %zu (facts %zu distinct / %zu total, new %zu)\n",
                      num_slices, distinct_facts, total_facts,
                      total_new_facts);
  out += StringPrintf(
      "facts per slice: mean %.1f, min %zu, max %zu\n", mean_facts,
      min_facts, max_facts);
  out += StringPrintf(
      "profit: total %.2f, p25 %.2f, median %.2f, p75 %.2f\n", total_profit,
      profit_p25, profit_p50, profit_p75);
  out += "slices by URL depth:";
  for (const auto& [depth, count] : by_url_depth) {
    out += StringPrintf(" d%zu=%zu", depth, count);
  }
  out += "\n";
  return out;
}

}  // namespace eval
}  // namespace midas
