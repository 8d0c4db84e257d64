#ifndef MIDAS_EVAL_EXPERIMENT_H_
#define MIDAS_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "midas/baselines/agg_cluster.h"
#include "midas/baselines/greedy.h"
#include "midas/baselines/methods.h"
#include "midas/baselines/naive.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/eval/metrics.h"
#include "midas/synth/silver_standard.h"
#include "midas/web/web_source.h"

namespace midas {
namespace eval {

/// How a method is driven over a corpus.
enum class RunMode {
  /// Full MIDAS framework: hierarchy rounds + consolidation.
  kFrameworkRounds,
  /// One detector call per explicit source, no rounds.
  kPerSource,
  /// Facts aggregated per web domain, one detector call per domain — how
  /// the whole-source Naive baseline is evaluated.
  kPerDomain,
};

/// A method under evaluation.
struct MethodSpec {
  std::string name;
  const core::SliceDetector* detector = nullptr;
  RunMode mode = RunMode::kFrameworkRounds;
};

/// The paper's four methods (§IV-B, baselines::Methods()) over one cost
/// model, with owned detector instances. `agg_max_entities` bounds
/// AggCluster per source (0 = unlimited).
class MethodSuite {
 public:
  explicit MethodSuite(core::CostModel cost_model = core::CostModel(),
                       size_t agg_max_entities = 0);

  const std::vector<MethodSpec>& specs() const { return specs_; }

  /// Looks a method up by name; nullptr if absent.
  const MethodSpec* Find(const std::string& name) const;

 private:
  std::vector<std::unique_ptr<core::SliceDetector>> detectors_;
  std::vector<MethodSpec> specs_;
};

/// Returns a copy of `corpus`'s facts re-keyed to bare-domain sources.
web::Corpus AggregateByDomain(const web::Corpus& corpus);

/// Runs one method over the corpus and returns its ranked slices (profit
/// descending — for Naive the rank score is its new-fact count).
std::vector<core::DiscoveredSlice> RunMethod(
    const MethodSpec& method, const web::Corpus& corpus,
    const rdf::KnowledgeBase& kb, core::FrameworkStats* stats = nullptr,
    size_t num_threads = 0);

/// As RunMethod, but takes the full framework options (deadlines, retry
/// policy, run cancel) and returns the full result — per-source reports and
/// the partial flag included. `options.use_hierarchy_rounds` is overridden
/// from the method's RunMode.
core::FrameworkResult RunMethodWithOptions(const MethodSpec& method,
                                           const web::Corpus& corpus,
                                           const rdf::KnowledgeBase& kb,
                                           core::FrameworkOptions options);

/// One row of the coverage-sweep experiment (paper Fig. 9).
struct CoverageRow {
  double coverage = 0.0;
  std::string method;
  PrfScores scores;
};

/// Runs every method at every coverage ratio against a slim dataset: the
/// silver slices' facts are moved into the KB per the §IV-B protocol, the
/// remaining slices are the optimal output.
std::vector<CoverageRow> RunCoverageSweep(
    const web::Corpus& corpus,
    const std::shared_ptr<rdf::Dictionary>& dict,
    const synth::SilverStandard& initial_silver,
    const std::vector<MethodSpec>& methods,
    const std::vector<double>& coverages, uint64_t seed = 5);

}  // namespace eval
}  // namespace midas

#endif  // MIDAS_EVAL_EXPERIMENT_H_
