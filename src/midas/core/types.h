#ifndef MIDAS_CORE_TYPES_H_
#define MIDAS_CORE_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"

namespace midas {
namespace core {

/// Dense per-source entity id (row of the fact table).
using EntityId = uint32_t;

/// Dense per-source property id (see PropertyCatalog).
using PropertyId = uint32_t;

inline constexpr uint32_t kInvalidIndex = std::numeric_limits<uint32_t>::max();

/// A property c = (pred, v) in catalog-independent form: dictionary term
/// ids. This is how slices travel between web sources in the framework,
/// where each source has its own PropertyCatalog.
struct PropertyPair {
  rdf::TermId predicate = rdf::kInvalidTermId;
  rdf::TermId value = rdf::kInvalidTermId;

  bool operator==(const PropertyPair& other) const {
    return predicate == other.predicate && value == other.value;
  }
  bool operator<(const PropertyPair& other) const {
    if (predicate != other.predicate) return predicate < other.predicate;
    return value < other.value;
  }
};

/// A web source slice as reported to the user: the paper's triplet
/// S(W) = (C, Π, Π*) plus provenance and profit bookkeeping.
struct DiscoveredSlice {
  /// The web source this slice describes (finest URL granularity that
  /// contains all of the slice's facts).
  std::string source_url;

  /// C — the defining property set, sorted.
  std::vector<PropertyPair> properties;

  /// Π — subjects of the selected entities.
  std::vector<rdf::TermId> entities;

  /// Π* — all facts associated with the entities in Π.
  std::vector<rdf::Triple> facts;

  /// |Π*| and |Π* \ E|.
  size_t num_facts = 0;
  size_t num_new_facts = 0;

  /// f({S}) — the slice's individual profit under the run's cost model.
  double profit = 0.0;

  /// Human-readable description, e.g.
  /// "category=rocket_family & sponsor=NASA".
  std::string Description(const rdf::Dictionary& dict) const;
};

/// The ranking order of reported slices: descending profit, then URL, then
/// more properties first, then the properties lexicographically. A strict
/// weak order under which two slices tie only if they share profit, URL
/// and property set, so a ranking never depends on the input order.
bool RanksBefore(const DiscoveredSlice& a, const DiscoveredSlice& b);

/// Sorts slices by RanksBefore.
void SortByProfitDesc(std::vector<DiscoveredSlice>* slices);

}  // namespace core
}  // namespace midas

#endif  // MIDAS_CORE_TYPES_H_
