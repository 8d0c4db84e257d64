#ifndef MIDAS_RDF_TRIPLE_H_
#define MIDAS_RDF_TRIPLE_H_

#include <cstddef>
#include <tuple>

#include "midas/rdf/dictionary.h"
#include "midas/util/hash.h"

namespace midas {
namespace rdf {

/// A dictionary-encoded RDF fact (subject, predicate, object). Ids refer to
/// the Dictionary the triple was built against; triples from different
/// dictionaries must never be mixed.
struct Triple {
  TermId subject = kInvalidTermId;
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;

  Triple() = default;
  Triple(TermId s, TermId p, TermId o)
      : subject(s), predicate(p), object(o) {}

  bool operator==(const Triple& other) const {
    return subject == other.subject && predicate == other.predicate &&
           object == other.object;
  }
  bool operator!=(const Triple& other) const { return !(*this == other); }
  bool operator<(const Triple& other) const {
    return std::tie(subject, predicate, object) <
           std::tie(other.subject, other.predicate, other.object);
  }
};

/// Hash functor for Triple, suitable for unordered containers.
struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = HashMix(t.subject);
    h = HashCombine(h, HashMix(t.predicate));
    h = HashCombine(h, HashMix(t.object));
    return static_cast<size_t>(h);
  }
};

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_TRIPLE_H_
