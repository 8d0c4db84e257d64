#include "midas/rdf/dictionary.h"

#include <functional>

#include "midas/util/logging.h"

namespace midas {
namespace rdf {

TermId Dictionary::IndexTerm(std::string_view term, TermId next) const {
  return index_.FindOrInsert(
      std::hash<std::string_view>{}(term), next,
      [this, term](TermId id) { return terms_[id] == term; });
}

TermId Dictionary::Intern(std::string_view term) {
  EnsureIndexed();
  MIDAS_CHECK_LT(terms_.size(), kInvalidTermId) << "dictionary overflow";
  const auto next = static_cast<TermId>(terms_.size());
  const TermId id = IndexTerm(term, next);
  if (id == next) {
    terms_.emplace_back(term);
    indexed_ = terms_.size();
  }
  return id;
}

std::optional<TermId> Dictionary::Lookup(std::string_view term) const {
  EnsureIndexed();
  const TermId id =
      index_.Find(std::hash<std::string_view>{}(term),
                  [this, term](TermId other) { return terms_[other] == term; });
  if (id == IdHashIndex::kNone) return std::nullopt;
  return id;
}

TermId Dictionary::AdoptUnchecked(std::string_view term) {
  MIDAS_CHECK_LT(terms_.size(), kInvalidTermId) << "dictionary overflow";
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  return id;
}

void Dictionary::EnsureIndexed() const {
  if (indexed_ == terms_.size()) return;
  index_.Reserve(terms_.size());
  // A duplicate adopted against the contract keeps resolving to its first
  // id, as FindOrInsert leaves the earlier entry in place.
  for (; indexed_ < terms_.size(); ++indexed_) {
    IndexTerm(terms_[indexed_], static_cast<TermId>(indexed_));
  }
}

}  // namespace rdf
}  // namespace midas
