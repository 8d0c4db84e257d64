#ifndef MIDAS_RDF_TRIPLE_STORE_H_
#define MIDAS_RDF_TRIPLE_STORE_H_

#include <cstddef>
#include <vector>

#include "midas/rdf/id_hash_index.h"
#include "midas/rdf/triple.h"

namespace midas {
namespace rdf {

/// In-memory set of distinct triples that keeps their insertion order.
///
/// The triples live in one insertion-ordered vector; an open-addressed
/// index of positions into it answers Contains() and suppresses
/// duplicates on Insert(). MIDAS asks the KB nothing else (DESIGN.md §1),
/// so there are no pattern indexes to build or keep current.
class TripleStore {
 public:
  TripleStore() = default;

  /// Inserts a triple; returns false if it was already present.
  bool Insert(const Triple& t);

  /// Bulk insert.
  void InsertAll(const std::vector<Triple>& triples);

  /// True iff the exact triple is present. O(1) expected; never allocates.
  bool Contains(const Triple& t) const {
    return index_.Find(TripleHash{}(t), [this, &t](uint32_t pos) {
             return triples_[pos] == t;
           }) != IdHashIndex::kNone;
  }

  /// Number of distinct triples.
  size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  /// All triples, insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

 private:
  std::vector<Triple> triples_;
  IdHashIndex index_;  // positions into triples_
};

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_TRIPLE_STORE_H_
