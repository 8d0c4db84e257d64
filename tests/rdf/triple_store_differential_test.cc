// Differential test: TripleStore's open-addressed index must agree with a
// std::set reference on every Insert return value and on Contains hits and
// misses, across several random store shapes (parameterized). Every shape
// but the empty one grows the index through several rehashes.
//
// The store answers membership only; a "pattern" here is a probe that keeps
// some positions of a stored triple and replaces the others, and "find" is
// Contains.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "midas/rdf/triple_store.h"
#include "midas/util/random.h"

namespace midas {
namespace rdf {
namespace {

struct StoreShape {
  size_t num_triples;
  uint64_t subjects;
  uint64_t predicates;
  uint64_t objects;
  uint64_t seed;
};

class TripleStoreDifferentialTest
    : public ::testing::TestWithParam<StoreShape> {
 protected:
  Triple RandomTriple(Rng* rng, uint64_t pad) const {
    const StoreShape& shape = GetParam();
    return Triple(static_cast<TermId>(rng->Uniform(shape.subjects + pad)),
                  static_cast<TermId>(rng->Uniform(shape.predicates + pad)),
                  static_cast<TermId>(rng->Uniform(shape.objects + pad)));
  }

  // Every triple drawn from the ids one past the seeded range — each a
  // miss unless the reference holds it — is checked by brute force.
  void CheckAllContains() const {
    const StoreShape& shape = GetParam();
    for (TermId s = 0; s <= shape.subjects; ++s) {
      for (TermId p = 0; p <= shape.predicates; ++p) {
        for (TermId o = 0; o <= shape.objects; ++o) {
          const Triple t(s, p, o);
          ASSERT_EQ(store_.Contains(t), reference_.count(t) > 0)
              << "(" << s << "," << p << "," << o << ")";
        }
      }
    }
  }

  // Inserts the shape's random triples, checking every Insert return value
  // and the size against the reference.
  void Seed(Rng* rng) {
    for (size_t i = 0; i < GetParam().num_triples; ++i) {
      const Triple t = RandomTriple(rng, 0);
      ASSERT_EQ(store_.Insert(t), reference_.insert(t).second)
          << "insert " << i;
      ASSERT_EQ(store_.size(), reference_.size());
    }
  }

  TripleStore store_;
  std::set<Triple> reference_;
};

TEST_P(TripleStoreDifferentialTest, InsertAndContainsAgree) {
  Rng rng(GetParam().seed);
  for (size_t i = 0; i < GetParam().num_triples; ++i) {
    const Triple t = RandomTriple(&rng, 0);
    ASSERT_EQ(store_.Insert(t), reference_.insert(t).second) << "insert " << i;
    ASSERT_EQ(store_.size(), reference_.size());
    // Probe a random triple, often outside the seeded id range, after every
    // insert, so hits and misses are checked at every table size.
    const Triple probe = RandomTriple(&rng, 2);
    ASSERT_EQ(store_.Contains(probe), reference_.count(probe) > 0);
  }
  if (GetParam().subjects * GetParam().predicates * GetParam().objects <=
      200000) {
    CheckAllContains();
  }
  // triples() holds exactly the distinct triples.
  EXPECT_EQ(std::set<Triple>(store_.triples().begin(), store_.triples().end()),
            reference_);
}

TEST_P(TripleStoreDifferentialTest, AllPatternShapesAgree) {
  Rng rng(GetParam().seed);
  ASSERT_NO_FATAL_FAILURE(Seed(&rng));
  const std::vector<Triple>& stored = store_.triples();
  for (int trial = 0; trial < 50; ++trial) {
    // Half the trials start from a stored triple, so the kept positions
    // are a hit's and each replaced one may or may not break the match.
    const Triple base = (!stored.empty() && trial % 2 == 0)
                            ? stored[rng.Uniform(stored.size())]
                            : RandomTriple(&rng, 2);
    const Triple other = RandomTriple(&rng, 2);
    // All 8 kept/replaced combinations of the three positions.
    for (int mask = 0; mask < 8; ++mask) {
      const Triple probe((mask & 1) ? base.subject : other.subject,
                         (mask & 2) ? base.predicate : other.predicate,
                         (mask & 4) ? base.object : other.object);
      ASSERT_EQ(store_.Contains(probe), reference_.count(probe) > 0)
          << "(" << probe.subject << "," << probe.predicate << ","
          << probe.object << ")";
    }
  }
}

TEST_P(TripleStoreDifferentialTest, CountAgreesWithFind) {
  Rng rng(GetParam().seed + 2000);
  ASSERT_NO_FATAL_FAILURE(Seed(&rng));
  // size() counts exactly the triples Contains finds, each listed once.
  size_t found = 0;
  for (const Triple& t : reference_) {
    if (store_.Contains(t)) ++found;
  }
  EXPECT_EQ(found, reference_.size());
  EXPECT_EQ(store_.size(), found);
  EXPECT_EQ(store_.triples().size(), found);
  // Re-inserting any stored triple is refused and leaves the count alone.
  for (const Triple& t : reference_) ASSERT_FALSE(store_.Insert(t));
  EXPECT_EQ(store_.size(), found);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TripleStoreDifferentialTest,
    ::testing::Values(
        StoreShape{0, 4, 4, 4, 1},        // empty store
        StoreShape{50, 4, 2, 4, 2},       // tiny, dense duplicates
        StoreShape{1000, 100, 8, 50, 3},  // medium
        StoreShape{5000, 40, 4, 20, 4},   // heavy collisions
        StoreShape{2000, 2000, 64, 2000, 5},    // sparse
        StoreShape{60000, 5000, 16, 5000, 6}),  // many growths
    [](const ::testing::TestParamInfo<StoreShape>& shape) {
      return "n" + std::to_string(shape.param.num_triples) + "_s" +
             std::to_string(shape.param.seed);
    });

}  // namespace
}  // namespace rdf
}  // namespace midas
