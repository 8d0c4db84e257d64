#include "midas/synth/corpus_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

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

// FNV-1a over length-prefixed strings and little-endian integers.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    Add(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void Add(const rdf::Triple& t) {
    Add(t.subject);
    Add(t.predicate);
    Add(t.object);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) { h_ = (h_ ^ b) * 1099511628211ull; }
  uint64_t h_ = 14695981039346656037ull;
};

// Everything GenerateCorpus produces, in a fixed order.
uint64_t CorpusDigest(const GeneratedCorpus& data) {
  Fnv h;
  h.Add(data.dict->size());
  for (size_t i = 0; i < data.dict->size(); ++i) {
    h.Add(data.dict->Term(static_cast<rdf::TermId>(i)));
  }
  h.Add(data.corpus->NumSources());
  for (const auto& source : data.corpus->sources()) {
    h.Add(source.url);
    h.Add(source.facts.size());
    for (const rdf::Triple& t : source.facts) h.Add(t);
  }
  h.Add(data.kb->size());
  for (const rdf::Triple& t : data.kb->store().triples()) h.Add(t);
  h.Add(data.silver.size());
  for (const GroundTruthSlice& gt : data.silver.slices) {
    h.Add(gt.source_url);
    h.Add(gt.description);
    for (const auto& [p, o] : gt.rule) {
      h.Add(p);
      h.Add(o);
    }
    h.Add(gt.entities.size());
    for (rdf::TermId e : gt.entities) h.Add(e);
    h.Add(gt.facts.size());
    for (const rdf::Triple& t : gt.facts) h.Add(t);
  }
  std::vector<std::pair<rdf::TermId, uint32_t>> groups(
      data.entity_group.begin(), data.entity_group.end());
  std::sort(groups.begin(), groups.end());
  h.Add(groups.size());
  for (const auto& [subject, group] : groups) {
    h.Add(subject);
    h.Add(group);
  }
  h.Add(data.num_true_facts);
  h.Add(data.num_extracted);
  h.Add(data.num_filtered);
  return h.value();
}

// Pins every draw of the content model, the KB coverage, the silver
// standard and the extraction to fixed digests, so a refactor of the
// generator cannot change a generated dataset unnoticed.
TEST(CorpusGeneratorTest, PinnedDigests) {
  const struct {
    const char* name;
    CorpusGenParams params;
    uint64_t digest;
  } kCases[] = {
      {"nell", NellLikeParams(0.1), 0x8c82171a4b03de7dull},
      {"reverb", ReVerbLikeParams(0.05), 0x95318ea04862c37bull},
      {"kv", KnowledgeVaultLikeParams(0.2), 0x0e3a86feb11df10aull},
      {"slim-nell", SlimParams(false, 20, 5), 0xd3f5ca29bc74e52cull},
      {"slim-reverb", SlimParams(true, 20, 5), 0xccbbd560138a58a0ull},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(CorpusDigest(GenerateCorpus(c.params)), c.digest) << c.name;
  }
}

// Pins the streamed file for perfbench's ClosedIE shape and for an OpenIE
// shape with a skewed first domain (paraphrase and skew draws).
TEST(StreamCorpusToColumnarTest, PinnedFiles) {
  CorpusGenParams closed = StreamParams(1);
  closed.num_verticals = 768;
  CorpusGenParams open = StreamParams(2);
  open.mode = CorpusMode::kOpenIe;
  open.openie_paraphrases = 6;
  open.skewed_large_domain = true;
  open.skew_factor = 3;
  const struct {
    const char* name;
    CorpusGenParams params;
    uint64_t fingerprint, records, urls, bytes;
  } kCases[] = {
      {"closedie", closed, 0xf2c6accb61a0dad6ull, 5211, 243, 959616},
      {"openie_skewed", open, 0xcc9b8141402f4c7full, 5175, 222, 236032},
  };
  const std::string dir = tests::TestDir();
  for (const auto& c : kCases) {
    const std::string path = dir + "/" + c.name + ".midascol";
    ASSERT_TRUE(StreamCorpusToColumnar(c.params, kStreamTarget, path).ok());
    store::ColumnarReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_EQ(reader.content_fingerprint(), c.fingerprint) << c.name;
    EXPECT_EQ(reader.num_records(), c.records) << c.name;
    EXPECT_EQ(reader.num_urls(), c.urls) << c.name;
    EXPECT_EQ(FileBytes(path).size(), c.bytes) << c.name;
  }
}

}  // namespace
}  // namespace synth
}  // namespace midas
