#ifndef MIDAS_RDF_KNOWLEDGE_BASE_H_
#define MIDAS_RDF_KNOWLEDGE_BASE_H_

#include <memory>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/rdf/triple_store.h"

namespace midas {
namespace rdf {

/// The existing knowledge base E that MIDAS augments (the paper's role for
/// Freebase). Built over a Dictionary shared with the extraction corpus so
/// that membership tests compare dense ids, never strings.
///
/// Slice discovery asks the KB exactly one question — Contains(), from the
/// profit function (Def. 9) — so the KB is a TripleStore: the facts in
/// load order plus a flat hash index over them, and nothing else.
class KnowledgeBase {
 public:
  /// Creates a KB over `dict`. An empty KB (paper's ReVerb/NELL setting) is
  /// valid; dict must outlive the KB.
  explicit KnowledgeBase(std::shared_ptr<Dictionary> dict);

  /// Adds a fact; returns false if it was already present.
  bool Add(const Triple& t);

  /// Bulk add.
  void AddAll(const std::vector<Triple>& triples);

  /// True iff the fact exists. The hot call of the profit function.
  bool Contains(const Triple& t) const { return store_.Contains(t); }

  /// Number of facts.
  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  const Dictionary& dict() const { return *dict_; }
  const std::shared_ptr<Dictionary>& shared_dict() const { return dict_; }
  const TripleStore& store() const { return store_; }

 private:
  std::shared_ptr<Dictionary> dict_;
  TripleStore store_;
};

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_KNOWLEDGE_BASE_H_
