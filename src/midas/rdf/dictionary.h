#ifndef MIDAS_RDF_DICTIONARY_H_
#define MIDAS_RDF_DICTIONARY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "midas/rdf/id_hash_index.h"

namespace midas {
namespace rdf {

/// Dense id for an interned RDF term (subject, predicate, or object string).
using TermId = uint32_t;

/// Sentinel for "no term".
inline constexpr TermId kInvalidTermId = std::numeric_limits<TermId>::max();

/// String-interning dictionary. Every RDF term in a dataset is mapped to a
/// dense TermId once; triples, fact tables, slices, and the knowledge base
/// all operate on ids, which makes set operations on millions of facts cheap
/// (this is the standard dictionary-encoding idiom of RDF stores).
///
/// A Dictionary is shared between a corpus and the knowledge base it is
/// compared against, so ids are directly comparable. Not thread-safe for
/// writes; concurrent reads are safe once loading is done.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the id for `term`, interning it if new.
  TermId Intern(std::string_view term);

  /// Returns the id for `term` if already interned.
  std::optional<TermId> Lookup(std::string_view term) const;

  /// Bulk adoption for dictionary-encoded file loads: appends `term` under
  /// the next dense id WITHOUT touching the lookup index. The caller
  /// guarantees `term` is distinct from every term already present (the
  /// columnar format stores each term once, so loaders satisfy this by
  /// construction). The index catches up lazily on the next Intern/Lookup;
  /// pure id-space pipelines never pay for the hashing at all.
  TermId AdoptUnchecked(std::string_view term);

  /// Pre-sizes the term table for `n` total terms. Bulk loaders call this
  /// so AdoptUnchecked never pays for vector growth (the index is left
  /// alone; it sizes itself if and when EnsureIndexed runs).
  void Reserve(size_t n) { terms_.reserve(n); }

  /// Returns the string for an id. Requires id < size().
  const std::string& Term(TermId id) const { return terms_[id]; }

  /// Number of distinct terms.
  size_t size() const { return terms_.size(); }

 private:
  /// Indexes terms_[indexed_..size) — the tail AdoptUnchecked appended.
  void EnsureIndexed() const;

  /// Returns the id recording `term` in index_ (`next` if it was absent).
  TermId IndexTerm(std::string_view term, TermId next) const;

  std::vector<std::string> terms_;
  // Term ids keyed by their strings in terms_, probed by string_view, so
  // Lookup never allocates and no term is stored twice. Mutable with
  // indexed_: the index is a lazily maintained cache over terms_, and
  // Lookup (const) may have to catch it up after AdoptUnchecked.
  mutable IdHashIndex index_;
  mutable size_t indexed_ = 0;
};

}  // namespace rdf
}  // namespace midas

#endif  // MIDAS_RDF_DICTIONARY_H_
