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

// The reference: one Corpus::AddFact per record with confidence >
// threshold, independent of the shared corpus build.
web::Corpus ReferenceCorpus(const ExtractionDump& dump, double threshold) {
  web::Corpus corpus(dump.dict);
  for (const ExtractedFact& fact : dump.facts) {
    if (fact.confidence > threshold) corpus.AddFact(fact.url, fact.triple);
  }
  return corpus;
}

void ExpectSameSources(const web::Corpus& a, const web::Corpus& b) {
  ASSERT_EQ(a.NumSources(), b.NumSources());
  for (size_t s = 0; s < a.NumSources(); ++s) {
    EXPECT_EQ(a.sources()[s].url, b.sources()[s].url);
    EXPECT_EQ(a.sources()[s].facts, b.sources()[s].facts);
  }
}

TEST(BuildCorpusTest, GroupsByUrlAndFilters) {
  auto dump = MakeDump();
  web::Corpus corpus = BuildCorpus(dump, kKnowledgeVaultConfidenceThreshold);
  EXPECT_EQ(corpus.NumSources(), 2u);
  const auto* a = corpus.FindSource("http://x.com/a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->facts.size(), 2u);  // noise fact filtered out
  EXPECT_EQ(corpus.shared_dict().get(), dump.dict.get());
  // Duplicate records collapse, and the threshold is strict: a record at
  // exactly the threshold is dropped.
  dump.facts.push_back(dump.facts[0]);
  for (double threshold : {0.0, 0.7, 0.72, 0.88, 0.95}) {
    ExpectSameSources(ReferenceCorpus(dump, threshold),
                      BuildCorpus(dump, threshold));
  }
  EXPECT_EQ(BuildCorpus(dump, 0.72).FindSource("http://x.com/a")->facts.size(),
            1u);
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
