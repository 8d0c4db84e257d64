#include "midas/rdf/knowledge_base.h"

#include "midas/util/logging.h"

namespace midas {
namespace rdf {

KnowledgeBase::KnowledgeBase(std::shared_ptr<Dictionary> dict)
    : dict_(std::move(dict)) {
  MIDAS_CHECK(dict_ != nullptr);
}

bool KnowledgeBase::Add(const Triple& t) { return store_.Insert(t); }

void KnowledgeBase::AddAll(const std::vector<Triple>& triples) {
  store_.InsertAll(triples);
}

}  // namespace rdf
}  // namespace midas
