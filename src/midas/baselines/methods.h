#ifndef MIDAS_BASELINES_METHODS_H_
#define MIDAS_BASELINES_METHODS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "midas/core/profit.h"
#include "midas/core/range_index.h"
#include "midas/core/slice_detector.h"
#include "midas/rdf/knowledge_base.h"

namespace midas {
namespace baselines {

/// What a method's detector factory reads; each method takes the fields
/// that apply to it.
struct DetectorConfig {
  /// Profit coefficients (Def. 9), used by every method.
  core::CostModel cost_model;
  /// MIDAS only: the numeric-range extension (`discover --ranges`). Must
  /// outlive the detector. Null = off.
  const core::NumericRangeIndex* range_index = nullptr;
  /// AggCluster only: entity cap per source (0 = unlimited).
  size_t agg_max_entities = 0;
};

/// One slice-discovery method of the paper's evaluation (§IV-B).
struct Method {
  /// Name on the command line and in /discover requests ("midas").
  const char* token;
  /// Name in experiment reports ("MIDAS").
  const char* suite_name;
  /// True: the detector runs inside the framework's hierarchy rounds.
  /// False: it sees each whole source once (per-source mode in `discover`
  /// and /discover, per-domain mode in experiments).
  bool hierarchy_rounds;
  std::unique_ptr<core::SliceDetector> (*make)(const DetectorConfig& config);
};

/// The method table — midas, greedy, aggcluster, naive, in that order.
std::span<const Method> Methods();

/// The method whose token is `token`, or null.
const Method* FindMethod(std::string_view token);

/// The KB's share of a detector context: its fact count and an
/// order-independent sum of its mixed facts, as ids (the run fingerprint
/// binds the dictionary they index), so the same KB hashes equal in any
/// load order.
struct KbContentHash {
  uint64_t facts = 0;
  uint64_t fact_sum = 0;
};

/// O(|KB|): a long-lived caller computes it once per KB load and hands it
/// to every DetectorContext.
KbContentHash HashKbContent(const rdf::KnowledgeBase& kb);

/// Identity of a configured detector (core::FrameworkOptions::
/// detector_context): the method token, the cost model's exact bits,
/// whether the numeric-range extension is on, and the KB's content.
/// Equal contexts mean equal detector output on equal shard inputs. O(1).
uint64_t DetectorContext(std::string_view method,
                         const core::CostModel& cost_model, bool ranges,
                         const KbContentHash& kb);

}  // namespace baselines
}  // namespace midas

#endif  // MIDAS_BASELINES_METHODS_H_
