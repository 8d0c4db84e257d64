#include "midas/baselines/methods.h"

#include <array>
#include <bit>

#include "midas/baselines/agg_cluster.h"
#include "midas/baselines/greedy.h"
#include "midas/baselines/naive.h"
#include "midas/core/midas_alg.h"
#include "midas/util/hash.h"

namespace midas {
namespace baselines {

namespace {

std::unique_ptr<core::SliceDetector> MakeMidas(const DetectorConfig& config) {
  core::MidasOptions options;
  options.cost_model = config.cost_model;
  options.fact_table.range_index = config.range_index;
  return std::make_unique<core::MidasAlg>(options);
}

std::unique_ptr<core::SliceDetector> MakeGreedy(const DetectorConfig& config) {
  return std::make_unique<GreedyDetector>(config.cost_model);
}

std::unique_ptr<core::SliceDetector> MakeAggCluster(
    const DetectorConfig& config) {
  AggClusterOptions options;
  options.cost_model = config.cost_model;
  options.max_entities = config.agg_max_entities;
  return std::make_unique<AggClusterDetector>(options);
}

std::unique_ptr<core::SliceDetector> MakeNaive(const DetectorConfig& config) {
  return std::make_unique<NaiveDetector>(config.cost_model);
}

// MIDAS and Greedy refine slices bottom-up through the URL hierarchy.
// AggCluster clusters each whole source from scratch, one cluster per
// entity, as the paper describes — which is also what exposes its
// O(|E|² log |E|) cost on large sources (Fig. 10d); Naive ranks whole
// sources.
constexpr std::array<Method, 4> kMethods = {{
    {"midas", "MIDAS", true, &MakeMidas},
    {"greedy", "Greedy", true, &MakeGreedy},
    {"aggcluster", "AggCluster", false, &MakeAggCluster},
    {"naive", "Naive", false, &MakeNaive},
}};

}  // namespace

std::span<const Method> Methods() { return kMethods; }

const Method* FindMethod(std::string_view token) {
  for (const Method& method : kMethods) {
    if (token == method.token) return &method;
  }
  return nullptr;
}

KbContentHash HashKbContent(const rdf::KnowledgeBase& kb) {
  KbContentHash hash;
  hash.facts = kb.size();
  for (const rdf::Triple& t : kb.store().triples()) {
    hash.fact_sum += HashMix(HashCombine(
        (static_cast<uint64_t>(t.subject) << 32) | t.predicate, t.object));
  }
  return hash;
}

uint64_t DetectorContext(std::string_view method,
                         const core::CostModel& cost_model, bool ranges,
                         const KbContentHash& kb) {
  uint64_t h = Fnv1a64(method);
  for (const double v : {cost_model.f_p, cost_model.f_c, cost_model.f_d,
                         cost_model.f_v}) {
    h = HashCombine(h, std::bit_cast<uint64_t>(v));
  }
  h = HashCombine(h, ranges ? 1u : 0u);
  h = HashCombine(h, kb.facts);
  return HashMix(HashCombine(h, kb.fact_sum));
}

}  // namespace baselines
}  // namespace midas
