// Property-based tests of the multi-source framework over randomly
// generated corpora: provenance (every reported fact really was extracted
// under the reported URL's subtree), URL consistency, ranking, and
// agreement between the end-to-end result and per-slice recomputation.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "midas/core/midas.h"
#include "midas/synth/corpus_generator.h"
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
          << "reported fact never extracted: " << t.ToString(*data_->dict);
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
