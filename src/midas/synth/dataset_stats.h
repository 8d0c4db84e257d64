#ifndef MIDAS_SYNTH_DATASET_STATS_H_
#define MIDAS_SYNTH_DATASET_STATS_H_

#include <string>

#include "midas/rdf/knowledge_base.h"
#include "midas/web/web_source.h"

namespace midas {
namespace synth {

/// The columns of the paper's Fig. 7 dataset-statistics table.
struct DatasetStats {
  std::string name;
  size_t num_facts = 0;
  size_t num_predicates = 0;
  size_t num_urls = 0;
  size_t kb_facts = 0;  // 0 == "Empty"
};

/// Computes Fig. 7 statistics for a corpus + KB pair.
DatasetStats ComputeDatasetStats(const std::string& name,
                                 const web::Corpus& corpus,
                                 const rdf::KnowledgeBase& kb);

}  // namespace synth
}  // namespace midas

#endif  // MIDAS_SYNTH_DATASET_STATS_H_
