#ifndef MIDAS_EVAL_SUMMARY_H_
#define MIDAS_EVAL_SUMMARY_H_

#include <map>
#include <string>
#include <vector>

#include "midas/core/types.h"

namespace midas {
namespace eval {

/// Aggregate statistics of a discovered slice set — what an operator looks
/// at before committing wrapper-annotation budget to a work plan.
struct SliceSetSummary {
  size_t num_slices = 0;
  /// Unique facts / new facts across the set (overlaps collapsed).
  size_t distinct_facts = 0;
  size_t distinct_new_facts = 0;
  /// Totals as reported per slice (overlaps double-counted).
  size_t total_facts = 0;
  size_t total_new_facts = 0;
  double total_profit = 0.0;
  /// Per-slice fact-count distribution.
  double mean_facts = 0.0;
  size_t min_facts = 0;
  size_t max_facts = 0;
  /// Profit distribution (quartiles over the per-slice profits).
  double profit_p25 = 0.0, profit_p50 = 0.0, profit_p75 = 0.0;
  /// Slice counts by URL depth (0 = bare domain).
  std::map<size_t, size_t> by_url_depth;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Computes the summary.
SliceSetSummary SummarizeSlices(
    const std::vector<core::DiscoveredSlice>& slices);

}  // namespace eval
}  // namespace midas

#endif  // MIDAS_EVAL_SUMMARY_H_
