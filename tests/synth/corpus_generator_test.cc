#include "midas/synth/corpus_generator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>

#include "common/test_dir.h"
#include "midas/extract/columnar_io.h"
#include "midas/store/columnar.h"
#include "midas/util/string_util.h"
#include "midas/web/url.h"
#include "midas/web/web_source.h"

namespace midas {
namespace synth {
namespace {

TEST(CorpusGeneratorTest, Deterministic) {
  CorpusGenParams params = SlimParams(false, 20, 5);
  auto a = GenerateCorpus(params);
  auto b = GenerateCorpus(params);
  EXPECT_EQ(a.corpus->NumFacts(), b.corpus->NumFacts());
  EXPECT_EQ(a.corpus->NumSources(), b.corpus->NumSources());
  EXPECT_EQ(a.silver.size(), b.silver.size());
  EXPECT_EQ(a.kb->size(), b.kb->size());
}

TEST(CorpusGeneratorTest, UrlsFormAHierarchy) {
  auto data = GenerateCorpus(SlimParams(false, 20, 6));
  size_t with_depth2 = 0;
  for (const auto& src : data.corpus->sources()) {
    size_t depth = web::UrlDepth(src.url);
    EXPECT_GE(depth, 1u);
    EXPECT_LE(depth, 2u);
    if (depth == 2) ++with_depth2;
    EXPECT_TRUE(StartsWith(src.url, "http://www.domain"));
  }
  EXPECT_GT(with_depth2, 0u);
}

TEST(CorpusGeneratorTest, EntityGroupsCoverAllSubjects) {
  auto data = GenerateCorpus(SlimParams(false, 20, 7));
  size_t noise = 0, grouped = 0;
  for (const auto& src : data.corpus->sources()) {
    for (const auto& t : src.facts) {
      auto it = data.entity_group.find(t.subject);
      if (it == data.entity_group.end()) continue;  // minted noise terms
      if (it->second == GeneratedCorpus::kNoiseGroup) {
        ++noise;
      } else {
        ++grouped;
      }
    }
  }
  EXPECT_GT(noise, 0u);
  EXPECT_GT(grouped, 0u);
}

TEST(CorpusGeneratorTest, KbCoverageKnobs) {
  CorpusGenParams params = NellLikeParams(0.3);
  params.skewed_large_domain = false;
  auto data = GenerateCorpus(params);
  EXPECT_GT(data.kb->size(), 0u);
  // Known sections put ~95% of their facts into the KB, so the KB is a
  // sizable fraction of the true facts.
  EXPECT_GT(data.kb->size(), data.num_true_facts / 10);
  EXPECT_LT(data.kb->size(), data.num_true_facts);
}

TEST(CorpusGeneratorTest, SkewedDomainDominates) {
  CorpusGenParams params = NellLikeParams(0.3);
  ASSERT_TRUE(params.skewed_large_domain);
  auto data = GenerateCorpus(params);
  // Count facts per domain; domain0 must dwarf the median.
  std::unordered_map<std::string, size_t> per_domain;
  for (const auto& src : data.corpus->sources()) {
    auto url = web::Url::Parse(src.url);
    ASSERT_TRUE(url.ok());
    per_domain[url->host()] += src.facts.size();
  }
  size_t big = per_domain["www.domain0.example.com"];
  size_t max_other = 0;
  for (const auto& [host, count] : per_domain) {
    if (host != "www.domain0.example.com") {
      max_other = std::max(max_other, count);
    }
  }
  EXPECT_GT(big, 5 * max_other);
}

TEST(CorpusGeneratorTest, OpenIeModeExplodesPredicates) {
  auto closed = GenerateCorpus(SlimParams(false, 30, 8));
  auto open = GenerateCorpus(SlimParams(true, 30, 8));
  // Both modes mint extractor-noise predicates, which dampens the ratio;
  // the paraphrase explosion must still dominate.
  EXPECT_GT(static_cast<double>(open.corpus->NumDistinctPredicates()),
            1.5 * static_cast<double>(closed.corpus->NumDistinctPredicates()));
}

TEST(CorpusGeneratorTest, SilverSlicesHaveMinimumNewFacts) {
  CorpusGenParams params = SlimParams(false, 30, 9);
  params.min_silver_new_facts = 25;
  auto data = GenerateCorpus(params);
  for (const auto& gt : data.silver.slices) {
    size_t fresh = 0;
    for (const auto& t : gt.facts) {
      if (!data.kb->Contains(t)) ++fresh;
    }
    EXPECT_GE(fresh, 25u);
  }
}

TEST(CorpusGeneratorTest, SilverRuleHasTwoDefiningProperties) {
  auto data = GenerateCorpus(SlimParams(false, 20, 10));
  ASSERT_GT(data.silver.size(), 0u);
  for (const auto& gt : data.silver.slices) {
    EXPECT_EQ(gt.rule.size(), 2u);  // category + group
    EXPECT_FALSE(gt.description.empty());
    EXPECT_FALSE(gt.entities.empty());
  }
}

TEST(CorpusGeneratorTest, ExtractionLosesFacts) {
  auto data = GenerateCorpus(SlimParams(false, 20, 11));
  // recall < 1 and confidence filtering: extracted < true, filtered <=
  // extracted.
  EXPECT_LT(data.num_filtered, data.num_true_facts);
  EXPECT_LE(data.num_filtered, data.num_extracted);
}

// A small ClosedIE shape of the streamed corpora the benchmarks write.
CorpusGenParams StreamParams(uint64_t seed) {
  CorpusGenParams p;
  p.mode = CorpusMode::kClosedIe;
  p.num_verticals = 12;
  p.sections_per_domain = 2;
  p.pages_per_section = 8;
  p.entities_per_page = 6;
  p.noisy_domain_fraction = 0.3;
  p.extractor.recall = 0.7;
  p.confidence_threshold = 0.7;
  p.seed = seed;
  return p;
}

constexpr uint64_t kStreamTarget = 5000;

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(StreamCorpusToColumnarTest, SeedDeterminesTheBytes) {
  const std::string dir = tests::TestDir();
  ASSERT_TRUE(
      StreamCorpusToColumnar(StreamParams(1), kStreamTarget, dir + "/a").ok());
  ASSERT_TRUE(
      StreamCorpusToColumnar(StreamParams(1), kStreamTarget, dir + "/b").ok());
  ASSERT_TRUE(
      StreamCorpusToColumnar(StreamParams(2), kStreamTarget, dir + "/c").ok());
  const std::string a = FileBytes(dir + "/a");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, FileBytes(dir + "/b"));
  EXPECT_NE(a, FileBytes(dir + "/c"));
}

TEST(StreamCorpusToColumnarTest, StatsDescribeALoadableFile) {
  const std::string path = tests::TestDir() + "/corpus.midascol";
  StreamedCorpusStats stats;
  ASSERT_TRUE(
      StreamCorpusToColumnar(StreamParams(3), kStreamTarget, path, &stats)
          .ok());
  EXPECT_GE(stats.records_written, kStreamTarget);

  store::ColumnarReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(stats.records_written, reader.num_records());
  EXPECT_EQ(stats.num_sources, reader.num_urls());

  // Every written record is above the threshold, so the load keeps one
  // source per page URL.
  web::Corpus corpus;
  uint64_t fingerprint = 0;
  ASSERT_TRUE(extract::LoadColumnarCorpus(path, 0.7, /*dict=*/nullptr,
                                          &corpus, &fingerprint)
                  .ok());
  EXPECT_EQ(corpus.NumSources(), stats.num_sources);
  EXPECT_GT(corpus.NumFacts(), 0u);
  EXPECT_LE(corpus.NumFacts(), stats.records_written);
  EXPECT_EQ(fingerprint, reader.content_fingerprint());
}

}  // namespace
}  // namespace synth
}  // namespace midas
