#include "midas/eval/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace midas {
namespace eval {
namespace {

rdf::Triple T(uint32_t s, uint32_t p, uint32_t o) {
  return rdf::Triple(s, p, o);
}

core::DiscoveredSlice Slice(std::vector<rdf::Triple> facts, double profit) {
  core::DiscoveredSlice s;
  s.facts = std::move(facts);
  s.num_facts = s.facts.size();
  s.profit = profit;
  return s;
}

synth::GroundTruthSlice Gt(std::vector<rdf::Triple> facts) {
  synth::GroundTruthSlice gt;
  gt.facts = std::move(facts);
  return gt;
}

// The Jaccard similarity ScoreAgainstSilver sees between one returned and
// one silver slice is exactly `jaccard`: the pair matches at the next
// threshold below it and not at `jaccard` itself (a match needs more).
void ExpectJaccard(std::vector<rdf::Triple> returned_facts,
                   std::vector<rdf::Triple> silver_facts, double jaccard) {
  synth::SilverStandard silver;
  silver.slices = {Gt(std::move(silver_facts))};
  const std::vector<core::DiscoveredSlice> returned = {
      Slice(std::move(returned_facts), 1.0)};
  EXPECT_EQ(
      ScoreAgainstSilver(returned, silver, std::nextafter(jaccard, -1.0))
          .matched,
      1u);
  EXPECT_EQ(ScoreAgainstSilver(returned, silver, jaccard).matched, 0u);
}

TEST(JaccardTest, BasicCases) {
  ExpectJaccard({}, {}, 1.0);
  ExpectJaccard({T(1, 1, 1)}, {}, 0.0);
  ExpectJaccard({T(1, 1, 1)}, {T(1, 1, 1)}, 1.0);
  ExpectJaccard({T(1, 1, 1), T(2, 2, 2)}, {T(1, 1, 1), T(3, 3, 3)},
                1.0 / 3.0);
}

TEST(JaccardTest, DuplicatesTreatedAsSets) {
  ExpectJaccard({T(1, 1, 1), T(1, 1, 1)}, {T(1, 1, 1)}, 1.0);
}

TEST(ScoreTest, PerfectMatch) {
  synth::SilverStandard silver;
  silver.slices = {Gt({T(1, 1, 1), T(2, 2, 2)})};
  std::vector<core::DiscoveredSlice> returned = {
      Slice({T(1, 1, 1), T(2, 2, 2)}, 5.0)};
  auto scores = ScoreAgainstSilver(returned, silver);
  EXPECT_DOUBLE_EQ(scores.precision, 1.0);
  EXPECT_DOUBLE_EQ(scores.recall, 1.0);
  EXPECT_DOUBLE_EQ(scores.f_measure, 1.0);
}

TEST(ScoreTest, JaccardThresholdGates) {
  synth::SilverStandard silver;
  std::vector<rdf::Triple> gt_facts;
  for (uint32_t i = 0; i < 20; ++i) gt_facts.push_back(T(i, 0, 0));
  silver.slices = {Gt(gt_facts)};

  // 19/20 facts: Jaccard 0.95 — not strictly above threshold 0.95.
  std::vector<rdf::Triple> nearly(gt_facts.begin(), gt_facts.end() - 1);
  auto scores =
      ScoreAgainstSilver({Slice(nearly, 1.0)}, silver, /*threshold=*/0.95);
  EXPECT_EQ(scores.matched, 0u);

  // Lower threshold accepts it.
  scores = ScoreAgainstSilver({Slice(nearly, 1.0)}, silver, 0.9);
  EXPECT_EQ(scores.matched, 1u);
}

TEST(ScoreTest, SilverConsumedOnce) {
  synth::SilverStandard silver;
  silver.slices = {Gt({T(1, 1, 1)})};
  std::vector<core::DiscoveredSlice> returned = {
      Slice({T(1, 1, 1)}, 2.0), Slice({T(1, 1, 1)}, 1.0)};
  auto scores = ScoreAgainstSilver(returned, silver);
  EXPECT_EQ(scores.matched, 1u);  // duplicate is a false positive
  EXPECT_DOUBLE_EQ(scores.precision, 0.5);
  EXPECT_DOUBLE_EQ(scores.recall, 1.0);
}

TEST(ScoreTest, EmptyEdges) {
  synth::SilverStandard empty_silver;
  auto scores = ScoreAgainstSilver({}, empty_silver);
  EXPECT_DOUBLE_EQ(scores.precision, 0.0);
  EXPECT_DOUBLE_EQ(scores.recall, 0.0);
  EXPECT_DOUBLE_EQ(scores.f_measure, 0.0);

  synth::SilverStandard silver;
  silver.slices = {Gt({T(1, 1, 1)})};
  scores = ScoreAgainstSilver({}, silver);
  EXPECT_EQ(scores.matched, 0u);
  EXPECT_EQ(scores.expected, 1u);
}

TEST(ScoreTest, BestMatchWins) {
  // A returned slice overlapping two silver slices matches the better one.
  synth::SilverStandard silver;
  silver.slices = {Gt({T(1, 0, 0), T(2, 0, 0)}),
                   Gt({T(1, 0, 0), T(2, 0, 0), T(3, 0, 0)})};
  std::vector<core::DiscoveredSlice> returned = {
      Slice({T(1, 0, 0), T(2, 0, 0), T(3, 0, 0)}, 1.0)};
  auto scores = ScoreAgainstSilver(returned, silver, 0.5);
  EXPECT_EQ(scores.matched, 1u);
  EXPECT_DOUBLE_EQ(scores.recall, 0.5);
}

TEST(PrCurveTest, MonotoneRecallAndPrefixPrecision) {
  synth::SilverStandard silver;
  silver.slices = {Gt({T(1, 0, 0)}), Gt({T(2, 0, 0)})};
  std::vector<core::DiscoveredSlice> returned = {
      Slice({T(1, 0, 0)}, 3.0),   // hit
      Slice({T(9, 0, 0)}, 2.0),   // miss
      Slice({T(2, 0, 0)}, 1.0)};  // hit
  auto curve = PrecisionRecallCurve(returned, silver);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].recall, 0.5);
  EXPECT_NEAR(curve[2].precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(curve[2].recall, 1.0);
}

}  // namespace
}  // namespace eval
}  // namespace midas
