#include "midas/synth/dataset_stats.h"

namespace midas {
namespace synth {

DatasetStats ComputeDatasetStats(const std::string& name,
                                 const web::Corpus& corpus,
                                 const rdf::KnowledgeBase& kb) {
  DatasetStats stats;
  stats.name = name;
  stats.num_facts = corpus.NumFacts();
  stats.num_predicates = corpus.NumDistinctPredicates();
  stats.num_urls = corpus.NumSources();
  stats.kb_facts = kb.size();
  return stats;
}

}  // namespace synth
}  // namespace midas
