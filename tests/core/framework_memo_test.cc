// DetectionMemo: the in-memory per-source detection cache behind `midas
// serve`. Pins the staleness contract — a second run over an unchanged
// corpus restores every detector output bit-identically without calling
// Detect, and a fact delta re-detects exactly the touched source and its
// URL ancestors.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/corpus_fixture.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/core/slice_io.h"
#include "midas/web/web_source.h"

namespace midas {
namespace core {
namespace {

std::string SlicesKey(const FrameworkResult& result,
                      const rdf::Dictionary& dict) {
  std::string key;
  for (const auto& s : result.slices) {
    key += s.source_url + "|" + s.Description(dict) + "|" +
           std::to_string(s.num_facts) + "|" +
           std::to_string(s.num_new_facts) + "|" +
           std::to_string(s.profit) + "\n";
  }
  return key;
}

class FrameworkMemoTest : public ::testing::Test {
 protected:
  FrameworkMemoTest()
      : dict_(std::make_shared<rdf::Dictionary>()),
        corpus_(dict_),
        kb_(dict_) {
    options_.cost_model = CostModel::RunningExample();
    alg_ = std::make_unique<MidasAlg>(options_);
    tests::FillSectionedCorpus(&corpus_);
  }

  FrameworkResult Run(DetectionMemo* memo, bool hierarchy = true,
                      uint64_t context = 7) {
    FrameworkOptions fw;
    fw.use_hierarchy_rounds = hierarchy;
    fw.memo = memo;
    fw.detector_context = context;
    MidasFramework framework(alg_.get(), fw);
    return framework.Run(corpus_, kb_);
  }

  std::shared_ptr<rdf::Dictionary> dict_;
  web::Corpus corpus_;
  rdf::KnowledgeBase kb_;
  MidasOptions options_;
  std::unique_ptr<MidasAlg> alg_;
};

TEST(DetectionMemoTest, LookupRequiresMatchingFingerprint) {
  DetectionMemo memo;
  DetectionMemo::Entry entry;
  entry.fingerprint = 42;
  entry.status = SourceStatus::kNoSlices;
  entry.attempts = 1;
  memo.Update("http://a.com", entry);
  EXPECT_EQ(memo.size(), 1u);

  DetectionMemo::Entry out;
  EXPECT_FALSE(memo.Lookup("http://a.com", 41, &out));
  EXPECT_FALSE(memo.Lookup("http://b.com", 42, &out));
  ASSERT_TRUE(memo.Lookup("http://a.com", 42, &out));
  EXPECT_EQ(out.status, SourceStatus::kNoSlices);
  EXPECT_EQ(out.attempts, 1u);
}

TEST(DetectionMemoTest, FingerprintCoversContextFactsAndSeeds) {
  rdf::Dictionary dict;
  std::vector<rdf::Triple> facts{
      rdf::Triple(dict.Intern("e"), dict.Intern("p"), dict.Intern("v"))};
  std::vector<std::vector<PropertyPair>> seeds{
      {PropertyPair{dict.Intern("p"), dict.Intern("v")}}};

  const uint64_t base = DetectionMemo::ShardFingerprint(1, facts, seeds);
  EXPECT_EQ(base, DetectionMemo::ShardFingerprint(1, facts, seeds))
      << "fingerprint must be deterministic";
  EXPECT_NE(base, DetectionMemo::ShardFingerprint(2, facts, seeds))
      << "context must be folded in";

  auto more_facts = facts;
  more_facts.push_back(
      rdf::Triple(dict.Intern("e2"), dict.Intern("p"), dict.Intern("v")));
  EXPECT_NE(base, DetectionMemo::ShardFingerprint(1, more_facts, seeds));

  auto more_seeds = seeds;
  more_seeds.push_back({});
  EXPECT_NE(base, DetectionMemo::ShardFingerprint(1, facts, more_seeds))
      << "child seeds must be folded in";

  EXPECT_NE(DetectionMemo::ShardFingerprint(1, {}, {}), 0u);
}

TEST_F(FrameworkMemoTest, SecondRunIsBitIdenticalWithoutDetection) {
  DetectionMemo memo;
  const auto cold = Run(&memo);
  EXPECT_EQ(cold.stats.memo_hits, 0u);
  EXPECT_EQ(cold.stats.memo_misses, cold.stats.shards_processed);
  EXPECT_GT(memo.size(), 0u);

  const auto warm = Run(&memo);
  EXPECT_EQ(warm.stats.memo_hits, warm.stats.shards_processed);
  EXPECT_EQ(warm.stats.memo_misses, 0u);
  EXPECT_EQ(SlicesKey(warm, *dict_), SlicesKey(cold, *dict_));
  ASSERT_EQ(warm.sources.size(), cold.sources.size());
  for (size_t i = 0; i < warm.sources.size(); ++i) {
    EXPECT_EQ(warm.sources[i].url, cold.sources[i].url);
    EXPECT_EQ(warm.sources[i].status, cold.sources[i].status);
  }
}

TEST_F(FrameworkMemoTest, DeltaReDetectsOnlyTouchedAncestry) {
  DetectionMemo memo;
  const auto cold = Run(&memo);
  const size_t shards = cold.stats.shards_processed;

  // New facts on one existing page: the page's fingerprint changes, and so
  // do its section and host ancestors (their shard facts contain the
  // subtree union) — everything else must memo-hit.
  corpus_.AddFactRaw("http://a.com/sec0/page.htm", "fresh0", "cat", "rocket");
  corpus_.AddFactRaw("http://a.com/sec0/page.htm", "fresh1", "cat", "rocket");
  const auto warm = Run(&memo);
  EXPECT_EQ(warm.stats.memo_misses, 3u)
      << "page + section + host re-detect";
  EXPECT_EQ(warm.stats.memo_hits, shards - 3u);

  // The re-detection must equal a cold run over the mutated corpus.
  DetectionMemo fresh;
  const auto reference = Run(&fresh);
  EXPECT_EQ(SlicesKey(warm, *dict_), SlicesKey(reference, *dict_));
}

TEST_F(FrameworkMemoTest, ContextMismatchForcesReDetection) {
  DetectionMemo memo;
  Run(&memo, /*hierarchy=*/true, /*context=*/7);
  const auto other = Run(&memo, /*hierarchy=*/true, /*context=*/8);
  EXPECT_EQ(other.stats.memo_hits, 0u)
      << "a different detector identity must not reuse memo entries";
  EXPECT_EQ(other.stats.memo_misses, other.stats.shards_processed);
}

TEST_F(FrameworkMemoTest, AblationModeMemoizesPerSource) {
  DetectionMemo memo;
  const auto cold = Run(&memo, /*hierarchy=*/false);
  EXPECT_EQ(cold.stats.memo_misses, corpus_.NumSources());

  const auto warm = Run(&memo, /*hierarchy=*/false);
  EXPECT_EQ(warm.stats.memo_hits, corpus_.NumSources());
  EXPECT_EQ(SlicesKey(warm, *dict_), SlicesKey(cold, *dict_));
}

TEST_F(FrameworkMemoTest, FailedSourcesAreNotMemoized) {
  tests::ThrowingDetector thrower(options_, "sec1");
  FrameworkOptions fw;
  fw.detector_context = 7;
  fw.max_retries = 0;
  DetectionMemo memo;
  fw.memo = &memo;
  MidasFramework framework(&thrower, fw);

  const auto cold = framework.Run(corpus_, kb_);
  EXPECT_GT(cold.stats.shards_failed, 0u);
  const auto warm = framework.Run(corpus_, kb_);
  // The poisoned shard keeps re-detecting (and re-failing); clean shards
  // memo-hit.
  EXPECT_EQ(warm.stats.shards_failed, cold.stats.shards_failed);
  EXPECT_EQ(warm.stats.memo_misses, cold.stats.shards_failed);
  EXPECT_EQ(warm.stats.memo_hits,
            warm.stats.shards_processed - cold.stats.shards_failed);
}

TEST_F(FrameworkMemoTest, NullMemoKeepsCountersAtZero) {
  const auto result = Run(nullptr);
  EXPECT_EQ(result.stats.memo_hits, 0u);
  EXPECT_EQ(result.stats.memo_misses, 0u);
}

}  // namespace
}  // namespace core
}  // namespace midas
