#include "midas/eval/summary.h"

#include <gtest/gtest.h>

namespace midas {
namespace eval {
namespace {

core::DiscoveredSlice Slice(const std::string& url, uint32_t first,
                            uint32_t count, double profit, bool all_new) {
  core::DiscoveredSlice s;
  s.source_url = url;
  s.profit = profit;
  for (uint32_t e = first; e < first + count; ++e) {
    s.entities.push_back(e);
    s.facts.emplace_back(e, 1, e);
  }
  s.num_facts = s.facts.size();
  s.num_new_facts = all_new ? s.num_facts : s.num_facts / 2;
  return s;
}

TEST(SummaryTest, EmptySet) {
  auto s = SummarizeSlices({});
  EXPECT_EQ(s.num_slices, 0u);
  EXPECT_EQ(s.distinct_facts, 0u);
  EXPECT_DOUBLE_EQ(s.total_profit, 0.0);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(SummaryTest, CountsAndDistribution) {
  std::vector<core::DiscoveredSlice> slices = {
      Slice("http://a.com/x/p", 0, 10, 5.0, true),
      Slice("http://a.com/y", 10, 20, 9.0, true),
      Slice("http://b.com", 30, 4, 1.0, true),
  };
  auto s = SummarizeSlices(slices);
  EXPECT_EQ(s.num_slices, 3u);
  EXPECT_EQ(s.total_facts, 34u);
  EXPECT_EQ(s.distinct_facts, 34u);
  EXPECT_EQ(s.distinct_new_facts, 34u);
  EXPECT_DOUBLE_EQ(s.total_profit, 15.0);
  EXPECT_EQ(s.min_facts, 4u);
  EXPECT_EQ(s.max_facts, 20u);
  EXPECT_NEAR(s.mean_facts, 34.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.profit_p50, 5.0);
  // URL depths: 2, 1, 0.
  EXPECT_EQ(s.by_url_depth.at(0), 1u);
  EXPECT_EQ(s.by_url_depth.at(1), 1u);
  EXPECT_EQ(s.by_url_depth.at(2), 1u);
}

TEST(SummaryTest, OverlapCollapsesInDistinct) {
  std::vector<core::DiscoveredSlice> slices = {
      Slice("http://a.com", 0, 10, 5.0, true),
      Slice("http://a.com/x", 0, 10, 5.0, true),  // identical facts
  };
  auto s = SummarizeSlices(slices);
  EXPECT_EQ(s.total_facts, 20u);
  EXPECT_EQ(s.distinct_facts, 10u);
}

TEST(SummaryTest, PartiallyNewSlicesLowerBoundDistinctNew) {
  std::vector<core::DiscoveredSlice> slices = {
      Slice("http://a.com", 0, 10, 5.0, /*all_new=*/false),
  };
  auto s = SummarizeSlices(slices);
  EXPECT_EQ(s.total_new_facts, 5u);
  EXPECT_EQ(s.distinct_new_facts, 0u);  // lower bound (documented)
}

TEST(SummaryTest, HumanRendering) {
  auto s = SummarizeSlices({Slice("http://a.com/x", 0, 3, 2.5, true)});
  std::string text = s.ToString();
  EXPECT_NE(text.find("slices: 1"), std::string::npos);
  EXPECT_NE(text.find("d1=1"), std::string::npos);
}

}  // namespace
}  // namespace eval
}  // namespace midas
