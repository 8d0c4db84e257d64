// Record-order rewrites of an extraction dump that must not change the
// corpus it builds, shared by the corpus-build and CLI metamorphic tests.

#ifndef MIDAS_TESTS_COMMON_DUMP_LAYOUTS_H_
#define MIDAS_TESTS_COMMON_DUMP_LAYOUTS_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "midas/extract/extraction.h"

namespace midas {
namespace tests {

/// Deals a dump's records round-robin over its sources, in URL
/// first-appearance order. The unit dealt is a run of one source's records
/// up to and including its next record above `threshold`, so every
/// source's first surviving record lands in the first round: sources keep
/// the order of their first surviving records (the corpus's source order),
/// and each source keeps its record order.
inline extract::ExtractionDump RoundRobin(const extract::ExtractionDump& dump,
                                          double threshold) {
  std::map<std::string, std::pair<size_t, size_t>> rank_and_survivors;
  std::vector<std::pair<size_t, size_t>> round_and_rank;
  for (const extract::ExtractedFact& fact : dump.facts) {
    auto& [rank, survivors] =
        rank_and_survivors
            .try_emplace(fact.url, rank_and_survivors.size(), size_t{0})
            .first->second;
    round_and_rank.emplace_back(survivors, rank);
    if (fact.confidence > threshold) ++survivors;
  }
  std::vector<size_t> order(dump.facts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return round_and_rank[a] < round_and_rank[b];
  });
  extract::ExtractionDump out;
  out.dict = dump.dict;
  for (size_t i : order) out.facts.push_back(dump.facts[i]);
  return out;
}

}  // namespace tests
}  // namespace midas

#endif  // MIDAS_TESTS_COMMON_DUMP_LAYOUTS_H_
