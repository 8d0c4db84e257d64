#include "midas/rdf/dictionary.h"

#include <gtest/gtest.h>

namespace midas {
namespace rdf {
namespace {

TEST(DictionaryTest, InternAssignsDenseIds) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern("term");
  EXPECT_EQ(dict.Intern("term"), a);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary dict;
  TermId id = dict.Intern("Project Mercury");
  EXPECT_EQ(dict.Term(id), "Project Mercury");
}

TEST(DictionaryTest, LookupWithoutIntern) {
  Dictionary dict;
  dict.Intern("present");
  auto found = dict.Lookup("present");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(dict.Term(*found), "present");
  EXPECT_FALSE(dict.Lookup("absent").has_value());
  EXPECT_EQ(dict.size(), 1u);  // Lookup never interns
}

TEST(DictionaryTest, EmptyStringIsAValidTerm) {
  Dictionary dict;
  TermId id = dict.Intern("");
  EXPECT_EQ(dict.Term(id), "");
  EXPECT_TRUE(dict.Lookup("").has_value());
}

TEST(DictionaryTest, ManyTermsStaySorted) {
  Dictionary dict;
  for (int i = 0; i < 10000; ++i) {
    TermId id = dict.Intern("term_" + std::to_string(i));
    EXPECT_EQ(id, static_cast<TermId>(i));
  }
  EXPECT_EQ(dict.size(), 10000u);
  EXPECT_EQ(dict.Term(1234), "term_1234");
}

}  // namespace
}  // namespace rdf
}  // namespace midas
