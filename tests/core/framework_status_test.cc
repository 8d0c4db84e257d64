// Pins the per-source status contract of FrameworkResult: a source whose
// detector threw (kFailed) is distinguishable from one that completed and
// simply selected nothing (kNoSlices) — previously both just looked like
// "no slices from this URL". Also covers retry accounting: a detector that
// fails transiently recovers within the retry budget and still reports kOk.

#include "midas/core/framework.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/corpus_fixture.h"
#include "midas/core/midas_alg.h"
#include "midas/fault/cancel.h"
#include "midas/web/url.h"
#include "midas/web/web_source.h"

namespace midas {
namespace core {
namespace {

/// Detects nothing, everywhere — every source completes cleanly with zero
/// slices.
class EmptyDetector : public SliceDetector {
 public:
  std::string name() const override { return "Empty"; }
  std::vector<DiscoveredSlice> Detect(
      const SourceInput&, const rdf::KnowledgeBase&) const override {
    return {};
  }
};

/// Throws on the first `failures_per_url` attempts for each URL, then
/// delegates — a transient failure the retry loop should absorb.
class FlakyDetector : public SliceDetector {
 public:
  FlakyDetector(const MidasOptions& options, int failures_per_url)
      : alg_(options), failures_per_url_(failures_per_url) {}

  std::string name() const override { return "Flaky"; }

  std::vector<DiscoveredSlice> Detect(
      const SourceInput& input, const rdf::KnowledgeBase& kb) const override {
    int seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen = attempts_[input.url]++;
    }
    if (seen < failures_per_url_) {
      throw std::runtime_error("transient failure on " + input.url);
    }
    return alg_.Detect(input, kb);
  }

 private:
  MidasAlg alg_;
  int failures_per_url_;
  mutable std::mutex mu_;
  mutable std::map<std::string, int> attempts_;
};

/// Runs each round in process, then cancels the run: the cut lands after
/// the first round's shards all finished, before any parent ran.
class CancelAfterRound : public ShardExecutor {
 public:
  explicit CancelAfterRound(fault::CancelToken* token) : token_(token) {}

  void ExecuteRound(const ShardExecutionContext& ctx,
                    std::vector<ShardTask>* tasks,
                    std::vector<ShardTaskResult>* results) override {
    in_process_.ExecuteRound(ctx, tasks, results);
    token_->Cancel();
  }

 private:
  InProcessShardExecutor in_process_;
  fault::CancelToken* token_;
};

std::map<std::string, SourceReport> ByUrl(const FrameworkResult& result) {
  std::map<std::string, SourceReport> by_url;
  for (const auto& sr : result.sources) by_url[sr.url] = sr;
  return by_url;
}

FrameworkOptions FastRetries() {
  FrameworkOptions fw;
  fw.retry_backoff_ms = 1;
  return fw;
}

TEST(FrameworkStatusTest, DistinguishesFailedFromNoSlices) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);
  rdf::KnowledgeBase kb(dict);

  MidasOptions options;
  options.cost_model = CostModel::RunningExample();
  tests::ThrowingDetector detector(options, "sec1");
  MidasFramework framework(&detector, FastRetries());
  FrameworkResult result = framework.Run(corpus, kb);

  auto by_url = ByUrl(result);
  // The poisoned page shard threw on every attempt; so did its section
  // shard (the merged URL "/sec1" still contains the poison string).
  const auto& poisoned = by_url.at("http://a.com/sec1/page.htm");
  EXPECT_EQ(poisoned.status, SourceStatus::kFailed);
  EXPECT_EQ(poisoned.attempts, FrameworkOptions{}.max_retries + 1);
  EXPECT_NE(poisoned.error.find("synthetic detector failure"),
            std::string::npos);
  size_t failed = 0;
  for (const auto& sr : result.sources) {
    if (sr.status == SourceStatus::kFailed) {
      ++failed;
      EXPECT_NE(sr.url.find("sec1"), std::string::npos) << sr.url;
    }
  }
  EXPECT_EQ(failed, result.stats.shards_failed);
  // Healthy siblings completed and produced slices.
  const auto& healthy = by_url.at("http://a.com/sec0/page.htm");
  EXPECT_EQ(healthy.status, SourceStatus::kOk);
  EXPECT_EQ(healthy.attempts, 1u);
  EXPECT_TRUE(healthy.error.empty());
  // A contained failure is not a partial run — the rest completed fully.
  EXPECT_FALSE(result.partial);
  EXPECT_GE(result.stats.shards_failed, 1u);
}

TEST(FrameworkStatusTest, ZeroSlicesIsNoSlicesNotFailed) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);
  rdf::KnowledgeBase kb(dict);

  EmptyDetector detector;
  MidasFramework framework(&detector);
  FrameworkResult result = framework.Run(corpus, kb);

  ASSERT_FALSE(result.sources.empty());
  for (const auto& sr : result.sources) {
    EXPECT_EQ(sr.status, SourceStatus::kNoSlices) << sr.url;
    EXPECT_EQ(sr.attempts, 1u) << sr.url;
    EXPECT_TRUE(sr.error.empty()) << sr.url;
  }
  EXPECT_EQ(result.stats.shards_failed, 0u);
  EXPECT_FALSE(result.partial);
}

TEST(FrameworkStatusTest, TransientFailureRecoversWithinRetryBudget) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);
  rdf::KnowledgeBase kb(dict);

  MidasOptions options;
  options.cost_model = CostModel::RunningExample();
  FlakyDetector detector(options, /*failures_per_url=*/1);
  MidasFramework framework(&detector, FastRetries());
  FrameworkResult result = framework.Run(corpus, kb);

  ASSERT_FALSE(result.sources.empty());
  for (const auto& sr : result.sources) {
    EXPECT_NE(sr.status, SourceStatus::kFailed) << sr.url;
    EXPECT_EQ(sr.attempts, 2u) << sr.url;
  }
  EXPECT_EQ(result.stats.shards_failed, 0u);
  EXPECT_EQ(result.stats.shard_retries, result.sources.size());
  // The recovered run found the same slices a never-failing run would.
  MidasAlg plain(options);
  MidasFramework healthy(&plain);
  FrameworkResult expected = healthy.Run(corpus, kb);
  ASSERT_EQ(result.slices.size(), expected.slices.size());
  for (size_t i = 0; i < result.slices.size(); ++i) {
    EXPECT_EQ(result.slices[i].source_url, expected.slices[i].source_url);
    EXPECT_DOUBLE_EQ(result.slices[i].profit, expected.slices[i].profit);
  }
}

TEST(FrameworkStatusTest, AblationModeReportsPerExplicitSource) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);
  rdf::KnowledgeBase kb(dict);

  MidasOptions options;
  options.cost_model = CostModel::RunningExample();
  tests::ThrowingDetector detector(options, "sec2");
  FrameworkOptions fw = FastRetries();
  fw.use_hierarchy_rounds = false;
  MidasFramework framework(&detector, fw);
  FrameworkResult result = framework.Run(corpus, kb);

  // One report per explicit source — no synthesized parent URLs.
  EXPECT_EQ(result.sources.size(), corpus.NumSources());
  auto by_url = ByUrl(result);
  EXPECT_EQ(by_url.at("http://a.com/sec2/page.htm").status,
            SourceStatus::kFailed);
  EXPECT_EQ(by_url.at("http://a.com/sec3/page.htm").status,
            SourceStatus::kOk);
}

TEST(FrameworkStatusTest, CutAfterADeepRoundReportsItsParentsCancelled) {
  auto dict = std::make_shared<rdf::Dictionary>();
  web::Corpus corpus(dict);
  tests::FillSectionedCorpus(&corpus);  // pages only: no source at a parent
  rdf::KnowledgeBase kb(dict);

  MidasOptions options;
  options.cost_model = CostModel::RunningExample();
  MidasAlg alg(options);
  fault::CancelToken token;
  CancelAfterRound executor(&token);
  FrameworkOptions fw;
  fw.cancel = &token;
  fw.executor = &executor;
  const FrameworkResult result = MidasFramework(&alg, fw).Run(corpus, kb);

  // Every page finished, but the sections they feed never ran: the run is
  // partial, and each section is reported cancelled.
  EXPECT_TRUE(result.partial);
  const auto by_url = ByUrl(result);
  std::set<std::string> pages;
  for (const web::WebSource& source : corpus.sources()) {
    pages.insert(source.url);
    EXPECT_EQ(by_url.at(source.url).status, SourceStatus::kOk) << source.url;
    EXPECT_EQ(by_url.at(web::ParentUrlString(source.url)).status,
              SourceStatus::kCancelled)
        << source.url;
  }
  // The pages' slices are the best-so-far result.
  EXPECT_FALSE(result.slices.empty());
  for (const DiscoveredSlice& slice : result.slices) {
    EXPECT_EQ(pages.count(slice.source_url), 1u) << slice.source_url;
  }
}

TEST(FrameworkStatusTest, StatusNamesAreStable) {
  EXPECT_STREQ(SourceStatusName(SourceStatus::kOk), "ok");
  EXPECT_STREQ(SourceStatusName(SourceStatus::kNoSlices), "no_slices");
  EXPECT_STREQ(SourceStatusName(SourceStatus::kPartial), "partial");
  EXPECT_STREQ(SourceStatusName(SourceStatus::kFailed), "failed");
  EXPECT_STREQ(SourceStatusName(SourceStatus::kCancelled), "cancelled");
}

}  // namespace
}  // namespace core
}  // namespace midas
