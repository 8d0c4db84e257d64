#include "midas/extract/extraction.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/test_dir.h"
#include "midas/extract/dump_io.h"

namespace midas {
namespace extract {
namespace {

ExtractionDump MakeDump() {
  ExtractionDump dump;
  dump.dict = std::make_shared<rdf::Dictionary>();
  auto add = [&](const char* url, const char* s, const char* p,
                 const char* o, double conf) {
    dump.facts.push_back(ExtractedFact{
        url,
        rdf::Triple(dump.dict->Intern(s), dump.dict->Intern(p),
                    dump.dict->Intern(o)),
        conf});
  };
  add("http://x.com/a", "Atlas", "sponsor", "NASA", 0.95);
  add("http://x.com/a", "Atlas", "started", "1957", 0.72);
  add("http://x.com/a", "Atlas", "noise", "junk", 0.3);
  add("http://x.com/b", "Castor-4", "sponsor", "NASA", 0.88);
  return dump;
}

TEST(FilterByConfidenceTest, KeepsStrictlyAbove) {
  auto dump = MakeDump();
  auto kept = FilterByConfidence(dump.facts, 0.7);
  EXPECT_EQ(kept.size(), 3u);
  kept = FilterByConfidence(dump.facts, 0.72);  // strict >
  EXPECT_EQ(kept.size(), 2u);
  kept = FilterByConfidence(dump.facts, 0.0);
  EXPECT_EQ(kept.size(), 4u);
}

TEST(BuildCorpusTest, GroupsByUrlAndFilters) {
  auto dump = MakeDump();
  web::Corpus corpus = BuildCorpus(dump, kKnowledgeVaultConfidenceThreshold);
  EXPECT_EQ(corpus.NumSources(), 2u);
  const auto* a = corpus.FindSource("http://x.com/a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->facts.size(), 2u);  // noise fact filtered out
  EXPECT_EQ(corpus.shared_dict().get(), dump.dict.get());
}

TEST(DumpIoTest, SaveLoadRoundTrip) {
  std::string path = tests::TestDir() + "/dump.tsv";
  auto dump = MakeDump();
  ASSERT_TRUE(SaveDump(path, dump).ok());

  ExtractionDump loaded;
  ASSERT_TRUE(LoadDump(path, &loaded).ok());
  ASSERT_EQ(loaded.facts.size(), dump.facts.size());
  EXPECT_EQ(loaded.facts[0].url, "http://x.com/a");
  EXPECT_EQ(loaded.dict->Term(loaded.facts[0].triple.subject), "Atlas");
  EXPECT_NEAR(loaded.facts[1].confidence, 0.72, 1e-6);
  std::remove(path.c_str());
}

TEST(DumpIoTest, RejectsBadConfidence) {
  std::string path = tests::TestDir() + "/dump_bad.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("http://x.com\ts\tp\to\t1.5\n", f);
    fclose(f);
  }
  ExtractionDump loaded;
  EXPECT_EQ(LoadDump(path, &loaded).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DumpIoTest, RejectsWrongColumnCount) {
  std::string path = tests::TestDir() + "/dump_cols.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("http://x.com\ts\tp\to\n", f);
    fclose(f);
  }
  ExtractionDump loaded;
  EXPECT_EQ(LoadDump(path, &loaded).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extract
}  // namespace midas
