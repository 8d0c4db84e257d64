#include "midas/eval/experiment.h"

#include <algorithm>

#include "midas/util/logging.h"
#include "midas/util/timer.h"
#include "midas/web/url.h"

namespace midas {
namespace eval {

MethodSuite::MethodSuite(core::CostModel cost_model,
                         size_t agg_max_entities) {
  baselines::DetectorConfig config;
  config.cost_model = cost_model;
  config.agg_max_entities = agg_max_entities;
  // Methods outside the hierarchy rounds are evaluated per domain: the
  // paper's AggCluster and Naive see each whole web source.
  for (const baselines::Method& method : baselines::Methods()) {
    detectors_.push_back(method.make(config));
    specs_.push_back({method.suite_name, detectors_.back().get(),
                      method.hierarchy_rounds ? RunMode::kFrameworkRounds
                                              : RunMode::kPerDomain});
  }
}

const MethodSpec* MethodSuite::Find(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

web::Corpus AggregateByDomain(const web::Corpus& corpus) {
  web::Corpus out(corpus.shared_dict());
  for (const auto& source : corpus.sources()) {
    auto parsed = web::Url::Parse(source.url);
    std::string domain =
        parsed.ok() ? parsed->Domain().ToString() : source.url;
    for (const rdf::Triple& t : source.facts) {
      out.AddFact(domain, t);
    }
  }
  return out;
}

std::vector<core::DiscoveredSlice> RunMethod(const MethodSpec& method,
                                             const web::Corpus& corpus,
                                             const rdf::KnowledgeBase& kb,
                                             core::FrameworkStats* stats,
                                             size_t num_threads) {
  core::FrameworkOptions options;
  options.num_threads = num_threads;
  core::FrameworkResult result =
      RunMethodWithOptions(method, corpus, kb, options);
  if (stats != nullptr) *stats = result.stats;
  return std::move(result.slices);
}

core::FrameworkResult RunMethodWithOptions(const MethodSpec& method,
                                           const web::Corpus& corpus,
                                           const rdf::KnowledgeBase& kb,
                                           core::FrameworkOptions options) {
  MIDAS_CHECK(method.detector != nullptr);
  options.use_hierarchy_rounds = method.mode == RunMode::kFrameworkRounds;
  core::MidasFramework framework(method.detector, options);
  if (method.mode == RunMode::kPerDomain) {
    web::Corpus by_domain = AggregateByDomain(corpus);
    return framework.Run(by_domain, kb);
  }
  return framework.Run(corpus, kb);
}

std::vector<CoverageRow> RunCoverageSweep(
    const web::Corpus& corpus,
    const std::shared_ptr<rdf::Dictionary>& dict,
    const synth::SilverStandard& initial_silver,
    const std::vector<MethodSpec>& methods,
    const std::vector<double>& coverages, uint64_t seed) {
  std::vector<CoverageRow> rows;
  for (double coverage : coverages) {
    Rng rng(seed + static_cast<uint64_t>(coverage * 1000.0));
    synth::CoverageAdjusted adjusted =
        synth::BuildCoverageAdjustedKb(initial_silver, coverage, dict, &rng);
    for (const MethodSpec& method : methods) {
      auto slices = RunMethod(method, corpus, *adjusted.kb);
      CoverageRow row;
      row.coverage = coverage;
      row.method = method.name;
      row.scores = ScoreAgainstSilver(slices, adjusted.remaining);
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace eval
}  // namespace midas
