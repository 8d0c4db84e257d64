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
  Triple T(const char* s, const char* p, const char* o) {
    return Triple(dict_->Intern(s), dict_->Intern(p), dict_->Intern(o));
  }
  std::shared_ptr<Dictionary> dict_;
  KnowledgeBase kb_;
};

TEST_F(KnowledgeBaseTest, StartsEmpty) {
  EXPECT_TRUE(kb_.empty());
  EXPECT_EQ(kb_.size(), 0u);
}

TEST_F(KnowledgeBaseTest, AddByStringsAndContains) {
  EXPECT_TRUE(kb_.Add(T("Margarita", "ingredient", "tequila")));
  EXPECT_EQ(kb_.size(), 1u);
  EXPECT_TRUE(kb_.Contains(T("Margarita", "ingredient", "tequila")));
  EXPECT_FALSE(kb_.Contains(T("Margarita", "ingredient", "rum")));
}

TEST_F(KnowledgeBaseTest, DuplicateAddReturnsFalse) {
  EXPECT_TRUE(kb_.Add(T("s", "p", "o")));
  EXPECT_FALSE(kb_.Add(T("s", "p", "o")));
  EXPECT_EQ(kb_.size(), 1u);
}

TEST_F(KnowledgeBaseTest, SharedDictionaryWithCorpusIds) {
  TermId s = dict_->Intern("subject");
  TermId p = dict_->Intern("pred");
  TermId o = dict_->Intern("obj");
  kb_.Add(Triple(s, p, o));
  EXPECT_TRUE(kb_.Contains(Triple(s, p, o)));
  EXPECT_TRUE(kb_.Contains(T("subject", "pred", "obj")));
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
