#include "midas/rdf/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "midas/rdf/dictionary.h"

namespace midas {
namespace rdf {
namespace {

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small graph: people, cities, types.
    Add("alice", "lives_in", "paris");
    Add("alice", "type", "person");
    Add("bob", "lives_in", "paris");
    Add("bob", "type", "person");
    Add("carol", "lives_in", "rome");
    Add("carol", "type", "person");
    Add("paris", "type", "city");
    Add("rome", "type", "city");
  }

  Triple Add(const char* s, const char* p, const char* o) {
    Triple t(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
    store_.Insert(t);
    return t;
  }
  TermId Id(const char* term) { return dict_.Intern(term); }

  Dictionary dict_;
  TripleStore store_;
};

TEST_F(TripleStoreTest, InsertDedupes) {
  EXPECT_EQ(store_.size(), 8u);
  Triple dup(Id("alice"), Id("lives_in"), Id("paris"));
  EXPECT_FALSE(store_.Insert(dup));
  EXPECT_EQ(store_.size(), 8u);
}

TEST_F(TripleStoreTest, Contains) {
  EXPECT_TRUE(store_.Contains(Triple(Id("bob"), Id("type"), Id("person"))));
  EXPECT_FALSE(store_.Contains(Triple(Id("bob"), Id("type"), Id("city"))));
}

TEST_F(TripleStoreTest, NoMatchForUnknownTerm) {
  const TermId unknown = Id("never-inserted-subject");
  EXPECT_FALSE(store_.Contains(Triple(unknown, Id("type"), Id("person"))));
  EXPECT_FALSE(store_.Contains(Triple(Id("alice"), unknown, Id("paris"))));
  EXPECT_FALSE(store_.Contains(Triple(Id("alice"), Id("type"), unknown)));
}

TEST_F(TripleStoreTest, FullyBoundPattern) {
  EXPECT_TRUE(store_.Contains(Triple(Id("rome"), Id("type"), Id("city"))));
  EXPECT_FALSE(store_.Contains(Triple(Id("rome"), Id("type"), Id("person"))));
}

TEST_F(TripleStoreTest, UnboundPatternReturnsAll) {
  // triples() lists every stored triple once, in insertion order.
  const std::vector<Triple> expected = {
      Triple(Id("alice"), Id("lives_in"), Id("paris")),
      Triple(Id("alice"), Id("type"), Id("person")),
      Triple(Id("bob"), Id("lives_in"), Id("paris")),
      Triple(Id("bob"), Id("type"), Id("person")),
      Triple(Id("carol"), Id("lives_in"), Id("rome")),
      Triple(Id("carol"), Id("type"), Id("person")),
      Triple(Id("paris"), Id("type"), Id("city")),
      Triple(Id("rome"), Id("type"), Id("city"))};
  EXPECT_EQ(store_.triples(), expected);
}

TEST_F(TripleStoreTest, TriplesKeepInsertionOrderAcrossGrowth) {
  // Thousands of inserts (and duplicates) rehash the index many times; the
  // triple vector must stay in first-insertion order, because the KB hash
  // and `generate --kb` output are defined by it.
  const auto term = [this](char kind, int n) {
    std::string name(1, kind);
    name += std::to_string(n);
    return dict_.Intern(name);
  };
  std::vector<Triple> expected = store_.triples();
  for (int i = 0; i < 5000; ++i) {
    const Triple t(term('s', i % 700), term('p', i % 3), term('o', i % 11));
    const bool fresh = std::find(expected.begin(), expected.end(), t) ==
                       expected.end();
    EXPECT_EQ(store_.Insert(t), fresh);
    if (fresh) expected.push_back(t);
  }
  EXPECT_EQ(store_.triples(), expected);
  for (const Triple& t : expected) EXPECT_TRUE(store_.Contains(t));
}

TEST(TripleStoreScaleTest, LargeStorePatternQueries) {
  Dictionary dict;
  TripleStore store;
  // 100 subjects x 10 predicates.
  for (int s = 0; s < 100; ++s) {
    for (int p = 0; p < 10; ++p) {
      store.Insert(Triple(dict.Intern("s" + std::to_string(s)),
                          dict.Intern("p" + std::to_string(p)),
                          dict.Intern("o" + std::to_string((s + p) % 7))));
    }
  }
  EXPECT_EQ(store.size(), 1000u);
  // Every (subject, p3) pair holds exactly its own object.
  const TermId p3 = *dict.Lookup("p3");
  for (int s = 0; s < 100; ++s) {
    const TermId subject = *dict.Lookup("s" + std::to_string(s));
    for (int o = 0; o < 7; ++o) {
      EXPECT_EQ(store.Contains(
                    Triple(subject, p3, *dict.Lookup("o" + std::to_string(o)))),
                o == (s + 3) % 7);
    }
  }
  // Probing every (subject, predicate) pair with o0 finds the expected count.
  const TermId o0 = *dict.Lookup("o0");
  size_t expected = 0, found = 0;
  for (int s = 0; s < 100; ++s) {
    for (int p = 0; p < 10; ++p) {
      if ((s + p) % 7 == 0) ++expected;
      if (store.Contains(Triple(*dict.Lookup("s" + std::to_string(s)),
                                *dict.Lookup("p" + std::to_string(p)), o0))) {
        ++found;
      }
    }
  }
  EXPECT_EQ(found, expected);
}

TEST(TripleTest, OrderingAndEquality) {
  Triple a(1, 2, 3), b(1, 2, 4), c(1, 2, 3);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
}

}  // namespace
}  // namespace rdf
}  // namespace midas
