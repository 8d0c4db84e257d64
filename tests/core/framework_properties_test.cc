// Property-based tests of the multi-source framework over randomly
// generated corpora: provenance (every reported fact really was extracted
// under the reported URL's subtree), URL consistency, ranking, and
// agreement between the end-to-end result and per-slice recomputation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "midas/core/midas.h"
#include "midas/synth/corpus_generator.h"
#include "midas/util/random.h"
#include "midas/util/string_util.h"
#include "midas/web/url.h"

namespace midas {
namespace core {
namespace {

struct CorpusShape {
  bool open_ie;
  size_t num_sources;
  uint64_t seed;
};

// Namespace-scope storage zero-fills the padding after `open_ie`. gtest
// prints the parameter's raw bytes into each ctest name, so shapes built
// as temporaries would carry stack garbage into the names.
const CorpusShape kCorpusShapes[] = {
    {false, 20, 201},
    {false, 40, 202},
    {true, 20, 203},
    {true, 40, 204},
};

class FrameworkPropertiesTest
    : public ::testing::TestWithParam<CorpusShape> {
 protected:
  void SetUp() override {
    auto params = synth::SlimParams(GetParam().open_ie,
                                    GetParam().num_sources,
                                    GetParam().seed);
    data_ = std::make_unique<synth::GeneratedCorpus>(
        synth::GenerateCorpus(params));
    Midas midas;
    result_ = std::make_unique<FrameworkResult>(
        midas.DiscoverSlices(*data_->corpus, *data_->kb));
  }

  std::unique_ptr<synth::GeneratedCorpus> data_;
  std::unique_ptr<FrameworkResult> result_;
};

TEST_P(FrameworkPropertiesTest, ProvenanceEveryFactUnderReportedUrl) {
  // Index: triple -> set of URLs it was extracted from.
  std::unordered_map<rdf::Triple, std::vector<const std::string*>,
                     rdf::TripleHash>
      where;
  for (const auto& src : data_->corpus->sources()) {
    for (const auto& t : src.facts) {
      where[t].push_back(&src.url);
    }
  }
  for (const auto& slice : result_->slices) {
    for (const auto& t : slice.facts) {
      auto it = where.find(t);
      ASSERT_NE(it, where.end())
          << "reported fact never extracted: (" << data_->dict->Term(t.subject)
          << ", " << data_->dict->Term(t.predicate) << ", "
          << data_->dict->Term(t.object) << ")";
      bool under = false;
      for (const std::string* url : it->second) {
        if (StartsWith(*url, slice.source_url)) {
          under = true;
          break;
        }
      }
      EXPECT_TRUE(under) << "fact not under " << slice.source_url;
    }
  }
}

TEST_P(FrameworkPropertiesTest, ReportedUrlsAreValidPrefixes) {
  for (const auto& slice : result_->slices) {
    auto url = web::Url::Parse(slice.source_url);
    ASSERT_TRUE(url.ok()) << slice.source_url;
    // Normalized fixpoint.
    EXPECT_EQ(url->ToString(), slice.source_url);
  }
}

TEST_P(FrameworkPropertiesTest, RankedByProfit) {
  for (size_t i = 1; i < result_->slices.size(); ++i) {
    EXPECT_GE(result_->slices[i - 1].profit, result_->slices[i].profit);
  }
}

TEST_P(FrameworkPropertiesTest, SlicesInternallyConsistent) {
  for (const auto& slice : result_->slices) {
    EXPECT_FALSE(slice.properties.empty());
    EXPECT_FALSE(slice.entities.empty());
    EXPECT_EQ(slice.num_facts, slice.facts.size());
    EXPECT_LE(slice.num_new_facts, slice.num_facts);
    EXPECT_GT(slice.profit, 0.0);

    // Entities are exactly the fact subjects.
    std::unordered_set<rdf::TermId> subjects;
    for (const auto& t : slice.facts) subjects.insert(t.subject);
    std::unordered_set<rdf::TermId> entities(slice.entities.begin(),
                                             slice.entities.end());
    EXPECT_EQ(subjects, entities);

    // Every entity carries every defining property in the slice's facts.
    std::unordered_map<rdf::TermId,
                       std::unordered_set<uint64_t>>
        entity_pairs;
    for (const auto& t : slice.facts) {
      entity_pairs[t.subject].insert(
          (static_cast<uint64_t>(t.predicate) << 32) | t.object);
    }
    for (const auto& prop : slice.properties) {
      uint64_t key =
          (static_cast<uint64_t>(prop.predicate) << 32) | prop.value;
      for (rdf::TermId e : slice.entities) {
        EXPECT_TRUE(entity_pairs[e].count(key))
            << "entity " << data_->dict->Term(e)
            << " lacks defining property "
            << data_->dict->Term(prop.predicate) << "="
            << data_->dict->Term(prop.value);
      }
    }

    // num_new agrees with the KB.
    size_t fresh = 0;
    for (const auto& t : slice.facts) {
      if (!data_->kb->Contains(t)) ++fresh;
    }
    EXPECT_EQ(slice.num_new_facts, fresh);
  }
}

TEST_P(FrameworkPropertiesTest, NoDuplicateSlices) {
  std::unordered_set<std::string> seen;
  for (const auto& slice : result_->slices) {
    std::string key = slice.source_url + "|" +
                      slice.Description(*data_->dict);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate: " << key;
  }
}

// Rounds climb each domain's URL hierarchy and consolidation only meets a
// shard's own children, so two domains never interact: a run over the
// whole corpus must equal the fold of runs over each domain's sources —
// slices concatenated and ranked, reports merged in URL order, counters
// summed (rounds: the maximum). This is what lets `midas serve` reuse the
// stored results of the domains an ingest left untouched.
void ExpectRunEqualsDomainFold(const web::Corpus& corpus,
                               const rdf::KnowledgeBase& kb,
                               bool hierarchy) {
  MidasAlg alg{MidasOptions{}};
  FrameworkOptions options;
  options.num_threads = 2;
  options.use_hierarchy_rounds = hierarchy;
  const MidasFramework framework(&alg, options);
  const FrameworkResult whole = framework.Run(corpus, kb);

  std::map<std::string, std::vector<size_t>> domains;
  for (size_t i = 0; i < corpus.sources().size(); ++i) {
    const std::string& url = corpus.sources()[i].url;
    domains[std::string(web::UrlAncestry(url).back())].push_back(i);
  }
  ASSERT_GT(domains.size(), 1u) << "corpus must span several domains";
  FrameworkResult fold;
  for (const auto& [root, members] : domains) {
    web::Corpus part(corpus.shared_dict());
    for (const size_t i : members) {
      const web::WebSource& source = corpus.sources()[i];
      part.mutable_sources()[part.AddSource(source.url)].facts =
          source.facts;
    }
    FrameworkResult run = framework.Run(part, kb);
    for (auto& slice : run.slices) fold.slices.push_back(std::move(slice));
    for (auto& report : run.sources) {
      fold.sources.push_back(std::move(report));
    }
    fold.stats.shards_processed += run.stats.shards_processed;
    fold.stats.detector_calls += run.stats.detector_calls;
    fold.stats.rounds = std::max(fold.stats.rounds, run.stats.rounds);
  }
  SortByProfitDesc(&fold.slices);
  std::stable_sort(fold.sources.begin(), fold.sources.end(),
                   [](const SourceReport& a, const SourceReport& b) {
                     return a.url < b.url;
                   });

  EXPECT_EQ(whole.stats.shards_processed, fold.stats.shards_processed);
  EXPECT_EQ(whole.stats.detector_calls, fold.stats.detector_calls);
  EXPECT_EQ(whole.stats.rounds, fold.stats.rounds);
  ASSERT_EQ(whole.sources.size(), fold.sources.size());
  for (size_t i = 0; i < whole.sources.size(); ++i) {
    EXPECT_EQ(whole.sources[i].url, fold.sources[i].url);
    EXPECT_EQ(whole.sources[i].status, fold.sources[i].status);
    EXPECT_EQ(whole.sources[i].attempts, fold.sources[i].attempts);
  }
  ASSERT_EQ(whole.slices.size(), fold.slices.size());
  for (size_t i = 0; i < whole.slices.size(); ++i) {
    const DiscoveredSlice& a = whole.slices[i];
    const DiscoveredSlice& b = fold.slices[i];
    EXPECT_EQ(a.source_url, b.source_url) << "rank " << i;
    EXPECT_EQ(a.properties, b.properties) << "rank " << i;
    EXPECT_EQ(a.entities, b.entities) << "rank " << i;
    EXPECT_EQ(a.facts, b.facts) << "rank " << i;
    EXPECT_EQ(a.num_new_facts, b.num_new_facts) << "rank " << i;
    // Bit-equal: the same inputs in the same order, not a tolerance.
    EXPECT_EQ(a.profit, b.profit) << "rank " << i;
  }
}

TEST_P(FrameworkPropertiesTest, HierarchyRunEqualsFoldOfPerDomainRuns) {
  ExpectRunEqualsDomainFold(*data_->corpus, *data_->kb, /*hierarchy=*/true);
}

TEST_P(FrameworkPropertiesTest, AblationRunEqualsFoldOfPerDomainRuns) {
  ExpectRunEqualsDomainFold(*data_->corpus, *data_->kb, /*hierarchy=*/false);
}

// The Slim corpora above are too small for a parent's seed order to
// matter; these larger NELL- and ReVerb-like corpora are ones where rounds
// taken in hash order made a per-domain run differ from the whole run.
TEST(DomainFoldTest, NellAndReVerbLikeRunsEqualTheirPerDomainFold) {
  for (const bool open_ie : {false, true}) {
    SCOPED_TRACE(open_ie ? "reverb-like" : "nell-like");
    const synth::GeneratedCorpus data = synth::GenerateCorpus(
        open_ie ? synth::ReVerbLikeParams(0.05) : synth::NellLikeParams(0.05));
    ExpectRunEqualsDomainFold(*data.corpus, *data.kb, /*hierarchy=*/true);
    ExpectRunEqualsDomainFold(*data.corpus, *data.kb, /*hierarchy=*/false);
  }
}

// Ties on profit, URL and property count used to fall to std::sort's
// unspecified order; the property sets now break them, so any input order
// of a tied set ranks the same.
TEST(SliceRankingTest, ShuffledTiesRankTheSame) {
  std::vector<DiscoveredSlice> slices;
  for (rdf::TermId a = 0; a < 4; ++a) {
    for (rdf::TermId b = 0; b < 3; ++b) {
      DiscoveredSlice slice;
      slice.source_url = b == 0 ? "http://a.com" : "http://a.com/x";
      slice.properties = {{a, b}, {a + 10, b}};
      slice.profit = a % 2 == 0 ? 1.5 : 2.5;
      slices.push_back(slice);
    }
  }
  std::vector<DiscoveredSlice> reference = slices;
  SortByProfitDesc(&reference);
  for (size_t i = 1; i < reference.size(); ++i) {
    EXPECT_TRUE(RanksBefore(reference[i - 1], reference[i]));
  }
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<DiscoveredSlice> shuffled = slices;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    SortByProfitDesc(&shuffled);
    for (size_t i = 0; i < shuffled.size(); ++i) {
      EXPECT_EQ(shuffled[i].source_url, reference[i].source_url);
      EXPECT_EQ(shuffled[i].properties, reference[i].properties);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, FrameworkPropertiesTest,
    ::testing::ValuesIn(kCorpusShapes),
    [](const ::testing::TestParamInfo<CorpusShape>& info) {
      return std::string(info.param.open_ie ? "open" : "closed") + "_n" +
             std::to_string(info.param.num_sources) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace core
}  // namespace midas
