#include "midas/synth/dataset_stats.h"

#include <gtest/gtest.h>

#include <memory>

namespace midas {
namespace synth {
namespace {

TEST(DatasetStatsTest, CountsCorpusAndKb) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  corpus.AddFactRaw("http://a.com/x", "e1", "p1", "v1");
  corpus.AddFactRaw("http://a.com/x", "e1", "p2", "v2");
  corpus.AddFactRaw("http://b.com/y", "e2", "p1", "v3");

  rdf::KnowledgeBase kb(dict);
  kb.Add(rdf::Triple(dict->Intern("e1"), dict->Intern("p1"),
                     dict->Intern("v1")));

  auto stats = ComputeDatasetStats("toy", corpus, kb);
  EXPECT_EQ(stats.name, "toy");
  EXPECT_EQ(stats.num_facts, 3u);
  EXPECT_EQ(stats.num_predicates, 2u);
  EXPECT_EQ(stats.num_urls, 2u);
  EXPECT_EQ(stats.kb_facts, 1u);
}

TEST(DatasetStatsTest, EmptyKbColumn) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  rdf::KnowledgeBase kb(dict);
  auto stats = ComputeDatasetStats("empty", corpus, kb);
  EXPECT_EQ(stats.kb_facts, 0u);
  EXPECT_EQ(stats.num_facts, 0u);
}

}  // namespace
}  // namespace synth
}  // namespace midas
