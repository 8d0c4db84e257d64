#include "midas/core/slice_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "common/test_dir.h"
#include "midas/core/midas.h"

namespace midas {
namespace core {
namespace {

class SliceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/slices.tsv";
    dict_ = std::make_shared<rdf::Dictionary>();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Produces real slices by running MIDASalg over a small source.
  std::vector<DiscoveredSlice> MakeSlices() {
    rdf::KnowledgeBase kb(dict_);
    facts_.clear();
    for (int i = 0; i < 8; ++i) {
      std::string e = "rocket" + std::to_string(i);
      facts_.emplace_back(dict_->Intern(e), dict_->Intern("cat"),
                          dict_->Intern("rocket"));
      facts_.emplace_back(dict_->Intern(e), dict_->Intern("sponsor"),
                          dict_->Intern("NASA"));
      std::string c = "cocktail" + std::to_string(i);
      facts_.emplace_back(dict_->Intern(c), dict_->Intern("cat"),
                          dict_->Intern("cocktail"));
    }
    MidasOptions options;
    options.cost_model = CostModel::RunningExample();
    MidasAlg alg(options);
    SourceInput input;
    input.url = "http://src.example.com/sec";
    input.facts = &facts_;
    return alg.Detect(input, kb);
  }

  std::string path_;
  std::shared_ptr<rdf::Dictionary> dict_;
  std::vector<rdf::Triple> facts_;
};

TEST_F(SliceIoTest, RoundTripPreservesEverything) {
  auto slices = MakeSlices();
  ASSERT_GE(slices.size(), 2u);
  ASSERT_TRUE(SaveSlices(path_, *dict_, slices).ok());

  // Load into a FRESH dictionary: the format is self-contained.
  auto dict2 = std::make_shared<rdf::Dictionary>();
  std::vector<DiscoveredSlice> loaded;
  ASSERT_TRUE(LoadSlices(path_, dict2.get(), &loaded).ok());
  ASSERT_EQ(loaded.size(), slices.size());

  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(loaded[i].source_url, slices[i].source_url);
    EXPECT_NEAR(loaded[i].profit, slices[i].profit, 1e-6);
    EXPECT_EQ(loaded[i].num_facts, slices[i].num_facts);
    EXPECT_EQ(loaded[i].num_new_facts, slices[i].num_new_facts);
    EXPECT_EQ(loaded[i].entities.size(), slices[i].entities.size());
    EXPECT_EQ(loaded[i].properties.size(), slices[i].properties.size());
    EXPECT_EQ(loaded[i].Description(*dict2),
              slices[i].Description(*dict_));
  }
}

TEST_F(SliceIoTest, EmptySliceListRoundTrips) {
  ASSERT_TRUE(SaveSlices(path_, *dict_, {}).ok());
  std::vector<DiscoveredSlice> loaded;
  ASSERT_TRUE(LoadSlices(path_, dict_.get(), &loaded).ok());
  EXPECT_TRUE(loaded.empty());
}

TEST_F(SliceIoTest, RejectsFactBeforeSlice) {
  {
    std::ofstream out(path_);
    out << "F\ts\tp\to\n";
  }
  std::vector<DiscoveredSlice> loaded;
  EXPECT_EQ(LoadSlices(path_, dict_.get(), &loaded).code(),
            StatusCode::kCorruption);
}

TEST_F(SliceIoTest, RejectsUnknownTag) {
  {
    std::ofstream out(path_);
    out << "X\tnope\n";
  }
  std::vector<DiscoveredSlice> loaded;
  EXPECT_EQ(LoadSlices(path_, dict_.get(), &loaded).code(),
            StatusCode::kCorruption);
}

TEST_F(SliceIoTest, RejectsMalformedSliceHeader) {
  {
    std::ofstream out(path_);
    out << "S\thttp://x\tnot-a-number\t3\n";
  }
  std::vector<DiscoveredSlice> loaded;
  EXPECT_EQ(LoadSlices(path_, dict_.get(), &loaded).code(),
            StatusCode::kCorruption);
}

TEST_F(SliceIoTest, TermsWithTabsSurvive) {
  DiscoveredSlice slice;
  slice.source_url = "http://x.com";
  slice.profit = 1.5;
  slice.num_new_facts = 1;
  slice.facts.emplace_back(dict_->Intern("subject\twith\ttabs"),
                           dict_->Intern("p"), dict_->Intern("o\nnewline"));
  slice.num_facts = 1;
  ASSERT_TRUE(SaveSlices(path_, *dict_, {slice}).ok());

  auto dict2 = std::make_shared<rdf::Dictionary>();
  std::vector<DiscoveredSlice> loaded;
  ASSERT_TRUE(LoadSlices(path_, dict2.get(), &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(dict2->Term(loaded[0].facts[0].subject), "subject\twith\ttabs");
  EXPECT_EQ(dict2->Term(loaded[0].facts[0].object), "o\nnewline");
}

}  // namespace
}  // namespace core
}  // namespace midas
