#include "midas/rdf/knowledge_base.h"

#include <gtest/gtest.h>

#include <memory>

namespace midas {
namespace rdf {
namespace {

class KnowledgeBaseTest : public ::testing::Test {
 protected:
  KnowledgeBaseTest()
      : dict_(std::make_shared<Dictionary>()), kb_(dict_) {}
  std::shared_ptr<Dictionary> dict_;
  KnowledgeBase kb_;
};

TEST_F(KnowledgeBaseTest, StartsEmpty) {
  EXPECT_TRUE(kb_.empty());
  EXPECT_EQ(kb_.size(), 0u);
}

TEST_F(KnowledgeBaseTest, AddByStringsAndContains) {
  EXPECT_TRUE(kb_.Add("Margarita", "ingredient", "tequila"));
  EXPECT_EQ(kb_.size(), 1u);
  EXPECT_TRUE(kb_.Contains("Margarita", "ingredient", "tequila"));
  EXPECT_FALSE(kb_.Contains("Margarita", "ingredient", "rum"));
}

TEST_F(KnowledgeBaseTest, DuplicateAddReturnsFalse) {
  EXPECT_TRUE(kb_.Add("s", "p", "o"));
  EXPECT_FALSE(kb_.Add("s", "p", "o"));
  EXPECT_EQ(kb_.size(), 1u);
}

TEST_F(KnowledgeBaseTest, ContainsWithUninternedTermIsFalse) {
  kb_.Add("s", "p", "o");
  // "zzz" was never interned; string-level Contains must not intern it.
  size_t dict_size = dict_->size();
  EXPECT_FALSE(kb_.Contains("zzz", "p", "o"));
  EXPECT_EQ(dict_->size(), dict_size);
}

TEST_F(KnowledgeBaseTest, SharedDictionaryWithCorpusIds) {
  TermId s = dict_->Intern("subject");
  TermId p = dict_->Intern("pred");
  TermId o = dict_->Intern("obj");
  kb_.Add(Triple(s, p, o));
  EXPECT_TRUE(kb_.Contains(Triple(s, p, o)));
  EXPECT_TRUE(kb_.Contains("subject", "pred", "obj"));
}

TEST_F(KnowledgeBaseTest, AddAllBulk) {
  std::vector<Triple> triples;
  for (int i = 0; i < 100; ++i) {
    triples.emplace_back(dict_->Intern("s" + std::to_string(i)),
                         dict_->Intern("p"), dict_->Intern("o"));
  }
  kb_.AddAll(triples);
  EXPECT_EQ(kb_.size(), 100u);
  kb_.AddAll(triples);  // idempotent
  EXPECT_EQ(kb_.size(), 100u);
}

}  // namespace
}  // namespace rdf
}  // namespace midas
