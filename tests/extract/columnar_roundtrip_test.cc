// TSV <-> columnar equivalence on randomized extraction dumps: both
// formats must yield the same facts, the same TermIds (fresh-dictionary
// load), and bit-identical corpora — which makes everything downstream
// (slices, profits, dedup hashes) independent of the on-disk format. Corpus
// loads are checked against a reference built here, one Corpus::AddFact
// per surviving record, not against the shared corpus build itself.

#include "midas/extract/columnar_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/dump_layouts.h"
#include "common/test_dir.h"
#include "midas/extract/dump_io.h"
#include "midas/extract/extraction.h"
#include "midas/rdf/dictionary.h"
#include "midas/store/columnar.h"
#include "midas/util/random.h"
#include "midas/web/url.h"
#include "midas/web/web_source.h"

namespace midas {
namespace extract {
namespace {

// The reference corpus: records with confidence > threshold, each added
// through Corpus::AddFact, whose per-source triple set drops duplicate
// (url, triple) pairs. Sources come out in first-appearance order.
web::Corpus ReferenceCorpus(const ExtractionDump& dump, double threshold) {
  web::Corpus corpus(dump.dict);
  for (const ExtractedFact& fact : dump.facts) {
    if (fact.confidence > threshold) {
      corpus.AddFact(web::NormalizeUrl(fact.url), fact.triple);
    }
  }
  return corpus;
}

class ColumnarRoundtripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem = tests::TestDir() + "/roundtrip";
    tsv_path_ = stem + ".tsv";
    col_path_ = stem + ".midascol";
    std::remove(tsv_path_.c_str());
    std::remove(col_path_.c_str());
  }
  void TearDown() override {
    std::remove(tsv_path_.c_str());
    std::remove(col_path_.c_str());
  }

  // A randomized dump with duplicate (url, triple) pairs and confidences
  // straddling the 0.7 threshold. Confidences are drawn on a 1e-4 grid so
  // the TSV serialization (4 decimal places) is lossless and both formats
  // carry bit-identical values.
  ExtractionDump MakeDump(size_t n, uint64_t seed) const {
    Rng rng(seed);
    ExtractionDump dump;
    dump.dict = std::make_shared<rdf::Dictionary>();
    std::vector<rdf::TermId> entities, predicates;
    for (size_t i = 0; i < 40; ++i) {
      entities.push_back(dump.dict->Intern("entity" + std::to_string(i)));
    }
    for (size_t i = 0; i < 8; ++i) {
      predicates.push_back(dump.dict->Intern("pred" + std::to_string(i)));
    }
    for (size_t i = 0; i < n; ++i) {
      ExtractedFact fact;
      fact.url = "http://site" + std::to_string(rng.Uniform(6)) +
                 ".com/page" + std::to_string(rng.Uniform(5));
      fact.triple =
          rdf::Triple(entities[rng.Uniform(entities.size())],
                      predicates[rng.Uniform(predicates.size())],
                      entities[rng.Uniform(entities.size())]);
      fact.confidence = static_cast<double>(rng.Uniform(10001)) / 10000.0;
      dump.facts.push_back(std::move(fact));
    }
    return dump;
  }

  static void ExpectDumpsEqual(const ExtractionDump& a,
                               const ExtractionDump& b) {
    ASSERT_EQ(a.facts.size(), b.facts.size());
    for (size_t i = 0; i < a.facts.size(); ++i) {
      EXPECT_EQ(a.facts[i].url, b.facts[i].url) << "fact " << i;
      // Compare resolved strings, not raw ids, so the check is meaningful
      // even if the dictionaries assign ids in different orders.
      EXPECT_EQ(a.dict->Term(a.facts[i].triple.subject),
                b.dict->Term(b.facts[i].triple.subject));
      EXPECT_EQ(a.dict->Term(a.facts[i].triple.predicate),
                b.dict->Term(b.facts[i].triple.predicate));
      EXPECT_EQ(a.dict->Term(a.facts[i].triple.object),
                b.dict->Term(b.facts[i].triple.object));
      EXPECT_EQ(a.facts[i].confidence, b.facts[i].confidence);  // bit-exact
    }
  }

  static void ExpectCorporaIdentical(const web::Corpus& a,
                                     const web::Corpus& b) {
    ASSERT_EQ(a.NumSources(), b.NumSources());
    ASSERT_EQ(a.NumFacts(), b.NumFacts());
    for (size_t s = 0; s < a.NumSources(); ++s) {
      const web::WebSource& sa = a.sources()[s];
      const web::WebSource& sb = b.sources()[s];
      EXPECT_EQ(sa.url, sb.url) << "source " << s;
      ASSERT_EQ(sa.facts.size(), sb.facts.size()) << "source " << s;
      for (size_t f = 0; f < sa.facts.size(); ++f) {
        // Raw TermId equality: the columnar fast path must reproduce the
        // dump's exact ids, not merely equivalent strings.
        EXPECT_EQ(sa.facts[f].subject, sb.facts[f].subject);
        EXPECT_EQ(sa.facts[f].predicate, sb.facts[f].predicate);
        EXPECT_EQ(sa.facts[f].object, sb.facts[f].object);
      }
    }
  }

  std::string tsv_path_;
  std::string col_path_;
};

TEST_F(ColumnarRoundtripTest, DumpSurvivesColumnarRoundTrip) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const ExtractionDump original = MakeDump(2000, seed);
    ASSERT_TRUE(SaveColumnarDump(col_path_, original).ok());

    ExtractionDump loaded;
    LoadStats stats;
    uint64_t fingerprint = 0;
    ASSERT_TRUE(
        LoadColumnarDump(col_path_, &loaded, &stats, &fingerprint).ok());
    EXPECT_EQ(stats.rows_loaded, original.facts.size());
    EXPECT_EQ(stats.rows_quarantined, 0u);
    EXPECT_NE(fingerprint, 0u);
    ExpectDumpsEqual(original, loaded);
    // Fresh-dictionary load reproduces the saved TermIds exactly.
    for (size_t i = 0; i < original.facts.size(); ++i) {
      EXPECT_EQ(original.facts[i].triple.subject,
                loaded.facts[i].triple.subject);
      EXPECT_EQ(original.facts[i].triple.predicate,
                loaded.facts[i].triple.predicate);
      EXPECT_EQ(original.facts[i].triple.object,
                loaded.facts[i].triple.object);
    }
  }
}

TEST_F(ColumnarRoundtripTest, TsvAndColumnarLoadsAgree) {
  const ExtractionDump original = MakeDump(3000, 0xBEEF);
  ASSERT_TRUE(SaveDump(tsv_path_, original).ok());
  ASSERT_TRUE(SaveColumnarDump(col_path_, original).ok());

  ExtractionDump from_tsv;
  ASSERT_TRUE(LoadDump(tsv_path_, &from_tsv).ok());
  ExtractionDump from_col;
  ASSERT_TRUE(LoadColumnarDump(col_path_, &from_col, nullptr, nullptr).ok());
  ExpectDumpsEqual(from_tsv, from_col);
}

TEST_F(ColumnarRoundtripTest, FastCorpusPathMatchesBuildCorpus) {
  for (uint64_t seed : {11u, 12u}) {
    const ExtractionDump dump = MakeDump(4000, seed);
    ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());

    const web::Corpus reference = ReferenceCorpus(dump, 0.7);
    web::Corpus fast;
    uint64_t fingerprint = 0;
    ASSERT_TRUE(LoadColumnarCorpus(col_path_, 0.7, /*dict=*/nullptr, &fast,
                                   &fingerprint)
                    .ok());
    EXPECT_NE(fingerprint, 0u);
    ASSERT_NO_FATAL_FAILURE(ExpectCorporaIdentical(reference, fast));
    // Same TermId space too: resolved strings match under each corpus's
    // own dictionary.
    for (size_t s = 0; s < reference.NumSources(); ++s) {
      for (size_t f = 0; f < reference.sources()[s].facts.size(); ++f) {
        EXPECT_EQ(reference.dict().Term(reference.sources()[s].facts[f].subject),
                  fast.dict().Term(fast.sources()[s].facts[f].subject));
      }
    }
  }
}

TEST_F(ColumnarRoundtripTest, SourceGroupedDumpMatchesBuildCorpus) {
  // Grouping all of a source's records contiguously is the layout every
  // writer in this repo produces; MakeDump's random URL order (the other
  // tests) covers interleaved files. Both must match the reference.
  for (uint64_t seed : {21u, 22u}) {
    ExtractionDump dump = MakeDump(4000, seed);
    std::stable_sort(dump.facts.begin(), dump.facts.end(),
                     [](const ExtractedFact& a, const ExtractedFact& b) {
                       return a.url < b.url;
                     });
    ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());

    const web::Corpus reference = ReferenceCorpus(dump, 0.7);
    web::Corpus fast;
    ASSERT_TRUE(
        LoadColumnarCorpus(col_path_, 0.7, /*dict=*/nullptr, &fast, nullptr)
            .ok());
    ExpectCorporaIdentical(reference, fast);
  }
}

TEST_F(ColumnarRoundtripTest, PreSeededDictionaryRemapsCodes) {
  const ExtractionDump dump = MakeDump(1500, 99);
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());

  // A dictionary that already holds unrelated terms forces the remap path
  // (code != TermId); resolved strings must still match the reference.
  auto seeded = std::make_shared<rdf::Dictionary>();
  seeded->Intern("pre-existing-kb-term-a");
  seeded->Intern("pre-existing-kb-term-b");
  const web::Corpus reference = ReferenceCorpus(dump, 0.7);

  web::Corpus remapped;
  ASSERT_TRUE(
      LoadColumnarCorpus(col_path_, 0.7, seeded, &remapped, nullptr).ok());
  ASSERT_EQ(reference.NumSources(), remapped.NumSources());
  ASSERT_EQ(reference.NumFacts(), remapped.NumFacts());
  for (size_t s = 0; s < reference.NumSources(); ++s) {
    const web::WebSource& sa = reference.sources()[s];
    const web::WebSource& sb = remapped.sources()[s];
    EXPECT_EQ(sa.url, sb.url);
    ASSERT_EQ(sa.facts.size(), sb.facts.size());
    for (size_t f = 0; f < sa.facts.size(); ++f) {
      EXPECT_EQ(reference.dict().Term(sa.facts[f].subject),
                remapped.dict().Term(sb.facts[f].subject));
      EXPECT_EQ(reference.dict().Term(sa.facts[f].predicate),
                remapped.dict().Term(sb.facts[f].predicate));
      EXPECT_EQ(reference.dict().Term(sa.facts[f].object),
                remapped.dict().Term(sb.facts[f].object));
    }
  }
  // The seeded terms kept their ids.
  EXPECT_EQ(remapped.dict().Term(0), "pre-existing-kb-term-a");
  EXPECT_EQ(remapped.dict().Term(1), "pre-existing-kb-term-b");
}

TEST_F(ColumnarRoundtripTest, ThresholdFiltersExactlyLikeBuildCorpus) {
  const ExtractionDump dump = MakeDump(2500, 7);
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());
  for (double threshold : {0.0, 0.5, 0.7, 0.95, 1.0}) {
    const web::Corpus reference = ReferenceCorpus(dump, threshold);
    web::Corpus fast;
    ASSERT_TRUE(
        LoadColumnarCorpus(col_path_, threshold, nullptr, &fast, nullptr)
            .ok());
    ExpectCorporaIdentical(reference, fast);
  }
}

TEST_F(ColumnarRoundtripTest, EmptyDumpRoundTrips) {
  ExtractionDump dump;
  dump.dict = std::make_shared<rdf::Dictionary>();
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());
  ExtractionDump loaded;
  ASSERT_TRUE(LoadColumnarDump(col_path_, &loaded, nullptr, nullptr).ok());
  EXPECT_TRUE(loaded.facts.empty());
  web::Corpus corpus;
  ASSERT_TRUE(
      LoadColumnarCorpus(col_path_, 0.7, nullptr, &corpus, nullptr).ok());
  EXPECT_EQ(corpus.NumSources(), 0u);
}

TEST_F(ColumnarRoundtripTest, FingerprintIsStableAcrossSaves) {
  const ExtractionDump dump = MakeDump(800, 21);
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());
  uint64_t fp1 = 0, fp2 = 0;
  ExtractionDump scratch1, scratch2;
  ASSERT_TRUE(LoadColumnarDump(col_path_, &scratch1, nullptr, &fp1).ok());
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());  // rewrite
  ASSERT_TRUE(LoadColumnarDump(col_path_, &scratch2, nullptr, &fp2).ok());
  EXPECT_EQ(fp1, fp2);
}

// Corpus-build cases over hand-shaped columnar files.
class CorpusBuildTest : public ColumnarRoundtripTest {
 protected:
  // Stable-groups `dump` by URL in first-appearance order.
  static ExtractionDump Grouped(ExtractionDump dump) {
    std::vector<std::string> order;
    for (const ExtractedFact& fact : dump.facts) {
      if (std::find(order.begin(), order.end(), fact.url) == order.end()) {
        order.push_back(fact.url);
      }
    }
    const auto rank = [&order](const std::string& url) {
      return std::find(order.begin(), order.end(), url) - order.begin();
    };
    std::stable_sort(dump.facts.begin(), dump.facts.end(),
                     [&rank](const ExtractedFact& a, const ExtractedFact& b) {
                       return rank(a.url) < rank(b.url);
                     });
    return dump;
  }

  web::Corpus LoadCorpus(const ExtractionDump& dump) {
    EXPECT_TRUE(SaveColumnarDump(col_path_, dump).ok());
    web::Corpus corpus;
    EXPECT_TRUE(
        LoadColumnarCorpus(col_path_, 0.7, nullptr, &corpus, nullptr).ok());
    return corpus;
  }
};

// Distinct URL dictionary entries that normalize to one URL, interleaved
// with another source and sharing a triple, build one deduplicated source.
TEST_F(CorpusBuildTest, EquivalentUrlCodesBuildOneSource) {
  ExtractionDump dump;
  dump.dict = std::make_shared<rdf::Dictionary>();
  const auto add = [&dump](const char* url, const char* s, const char* o) {
    dump.facts.push_back(ExtractedFact{
        url,
        rdf::Triple(dump.dict->Intern(s), dump.dict->Intern("p"),
                    dump.dict->Intern(o)),
        0.9});
  };
  add("HTTP://A.com/x", "s1", "o1");
  add("http://b.com/y", "s1", "o1");
  add("http://a.com/x", "s1", "o1");  // same source, same triple
  add("http://a.com/x", "s2", "o2");
  add("HTTP://A.com/x", "s2", "o2");  // same source, same triple
  add("http://b.com/y", "s3", "o3");
  add("HTTP://A.com/x", "s3", "o3");
  ASSERT_TRUE(SaveColumnarDump(col_path_, dump).ok());
  {
    store::ColumnarReader reader;
    ASSERT_TRUE(reader.Open(col_path_).ok());
    ASSERT_EQ(reader.num_urls(), 3u);  // two spellings of one source
  }

  web::Corpus corpus;
  ASSERT_TRUE(
      LoadColumnarCorpus(col_path_, 0.7, nullptr, &corpus, nullptr).ok());
  const web::Corpus reference = ReferenceCorpus(dump, 0.7);
  ExpectCorporaIdentical(reference, corpus);
  ASSERT_EQ(corpus.NumSources(), 2u);
  EXPECT_EQ(corpus.sources()[0].url, web::NormalizeUrl("http://a.com/x"));
  EXPECT_EQ(corpus.sources()[0].facts.size(), 3u);
  EXPECT_EQ(corpus.sources()[1].facts.size(), 2u);
}

// A round-robin interleaving of a grouped dump keeps the order of every
// source's first surviving record and each source's record order, so it
// builds the grouped dump's corpus, in both formats.
TEST_F(CorpusBuildTest, RoundRobinInterleavingMatchesGroupedDump) {
  for (uint64_t seed : {31u, 32u}) {
    const ExtractionDump grouped = Grouped(MakeDump(3000, seed));
    const ExtractionDump interleaved = tests::RoundRobin(grouped, 0.7);
    ASSERT_EQ(interleaved.facts.size(), grouped.facts.size());
    const auto runs = [](const ExtractionDump& dump) {
      size_t n = 1;
      for (size_t i = 1; i < dump.facts.size(); ++i) {
        n += dump.facts[i].url != dump.facts[i - 1].url;
      }
      return n;
    };
    ASSERT_GT(runs(interleaved), 10 * runs(grouped));

    const web::Corpus reference = ReferenceCorpus(grouped, 0.7);
    ExpectCorporaIdentical(reference, LoadCorpus(grouped));
    ExpectCorporaIdentical(reference, LoadCorpus(interleaved));
    ExpectCorporaIdentical(reference, BuildCorpus(grouped, 0.7));
    ExpectCorporaIdentical(reference, BuildCorpus(interleaved, 0.7));
  }
}

}  // namespace
}  // namespace extract
}  // namespace midas
