#include "midas/rdf/triple_store.h"

#include "midas/util/logging.h"

namespace midas {
namespace rdf {

bool TripleStore::Insert(const Triple& t) {
  MIDAS_CHECK_LT(triples_.size(), IdHashIndex::kNone) << "triple store full";
  const auto next = static_cast<uint32_t>(triples_.size());
  const uint32_t pos = index_.FindOrInsert(
      TripleHash{}(t), next,
      [this, &t](uint32_t other) { return triples_[other] == t; });
  if (pos != next) return false;
  triples_.push_back(t);
  return true;
}

void TripleStore::InsertAll(const std::vector<Triple>& triples) {
  index_.Reserve(triples_.size() + triples.size());
  for (const Triple& t : triples) Insert(t);
}

}  // namespace rdf
}  // namespace midas
