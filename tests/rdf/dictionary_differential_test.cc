// Differential test: Dictionary's open-addressed term index must agree with
// a std::unordered_map reference under random interleavings of
// AdoptUnchecked (which leaves the index to catch up lazily), Intern and
// Lookup, through every growth of the index. The term pool holds the empty
// term and families of terms that differ only in their last byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "midas/rdf/dictionary.h"
#include "midas/util/random.h"

namespace midas {
namespace rdf {
namespace {

// Distinct terms: pool[0] is "", then families of 256 sharing everything
// but the last byte (0x00..0xff); odd families have a long shared prefix.
std::vector<std::string> TermPool(size_t n) {
  std::vector<std::string> pool = {""};
  for (size_t i = 0; pool.size() < n; ++i) {
    const size_t family = i / 256;
    std::string term(family % 2 == 0 ? 2 : 48, 'x');
    term += std::to_string(family);
    term.push_back('|');
    term.push_back(static_cast<char>(i % 256));
    pool.push_back(std::move(term));
  }
  return pool;
}

class Reference {
 public:
  // Checks that `dict` resolves every present term to its id, and its size.
  void CheckAll(const Dictionary& dict) const {
    ASSERT_EQ(dict.size(), ids_.size());
    for (const auto& [term, id] : ids_) {
      ASSERT_EQ(dict.Lookup(term), std::optional<TermId>(id));
      ASSERT_EQ(dict.Term(id), term);
    }
  }

  std::optional<TermId> Find(const std::string& term) const {
    auto it = ids_.find(term);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  TermId Add(const std::string& term) {
    const auto id = static_cast<TermId>(ids_.size());
    ids_.emplace(term, id);
    return id;
  }
  size_t size() const { return ids_.size(); }

 private:
  std::unordered_map<std::string, TermId> ids_;
};

TEST(DictionaryDifferentialTest, RandomInterleavingAgreesWithUnorderedMap) {
  const std::vector<std::string> pool = TermPool(6000);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    size_t next = 0;  // order[next..] are not in the dictionary yet
    Dictionary dict;
    Reference ref;
    // Seeds vary the mix: seed 1 adopts in long runs before any index
    // exists, the rest interleave every operation from the start.
    const uint64_t adopt_weight = seed == 1 ? 90 : 30;
    while (next < pool.size()) {
      const uint64_t op = rng.Uniform(100);
      const std::string& fresh = pool[order[next]];
      if (op < adopt_weight) {
        ASSERT_EQ(dict.AdoptUnchecked(fresh), ref.Add(fresh));
        ++next;
      } else if (op < adopt_weight + (100 - adopt_weight) / 2) {
        // Intern a present term or a fresh one, half and half.
        if (ref.size() > 0 && rng.Uniform(2) == 0) {
          const std::string& old = pool[order[rng.Uniform(next)]];
          ASSERT_EQ(dict.Intern(old), *ref.Find(old));
        } else {
          ASSERT_EQ(dict.Intern(fresh), ref.Add(fresh));
          ++next;
        }
      } else {
        // Look up a present term or an absent one, half and half.
        const std::string& term =
            ref.size() > 0 && rng.Uniform(2) == 0
                ? pool[order[rng.Uniform(next)]]
                : pool[order[next + rng.Uniform(pool.size() - next)]];
        ASSERT_EQ(dict.Lookup(term), ref.Find(term)) << "term size "
                                                     << term.size();
      }
      ASSERT_EQ(dict.size(), ref.size());
    }
    ref.CheckAll(dict);
  }
}

TEST(DictionaryDifferentialTest, EveryTermSurvivesEachGrowth) {
  // Sizes on both sides of each power of two the index doubles at, built
  // by Intern alone and by AdoptUnchecked alone (one lazy catch-up).
  const std::vector<std::string> pool = TermPool(4200);
  for (size_t bound = 8; bound <= 4096; bound *= 2) {
    for (size_t n : {bound - 1, bound, bound + 1}) {
      SCOPED_TRACE("n " + std::to_string(n));
      Dictionary interned, adopted;
      Reference ref;
      for (size_t i = 0; i < n; ++i) {
        const TermId id = ref.Add(pool[i]);
        ASSERT_EQ(interned.Intern(pool[i]), id);
        ASSERT_EQ(adopted.AdoptUnchecked(pool[i]), id);
      }
      ref.CheckAll(interned);
      ref.CheckAll(adopted);
      for (size_t i = n; i < std::min(pool.size(), n + 64); ++i) {
        ASSERT_FALSE(interned.Lookup(pool[i]).has_value());
        ASSERT_FALSE(adopted.Lookup(pool[i]).has_value());
      }
    }
  }
}

}  // namespace
}  // namespace rdf
}  // namespace midas
