// Verifies that SliceHierarchy construction reports its counters to the
// shared obs registry and that they agree with the HierarchyStats the
// builder returns: aggregate totals, the per-level node counters, and the
// profit-evaluation count (Prop. 12 survivors only).

#include "midas/core/slice_hierarchy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/corpus_fixture.h"
#include "midas/core/fact_table.h"
#include "midas/core/profit.h"
#include "midas/obs/metrics.h"
#include "midas/rdf/knowledge_base.h"

namespace midas {
namespace core {
namespace {

uint64_t CounterValue(const std::string& name) {
  const obs::Counter* c = obs::Registry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

class HierarchyObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef MIDAS_OBS_NOOP
    GTEST_SKIP() << "instrumentation compiled out";
#endif
    obs::Registry::Global().ResetAllForTest();
  }

  /// A small random source with overlapping property sets (the shared
  /// seeded fixture; see tests/common/corpus_fixture.h).
  void BuildFixture() {
    fixture_ = std::make_unique<tests::RandomTableFixture>();
    table_ = fixture_->table.get();
    profit_ = fixture_->profit.get();
  }

  std::unique_ptr<tests::RandomTableFixture> fixture_;
  FactTable* table_ = nullptr;
  ProfitContext* profit_ = nullptr;
};

TEST_F(HierarchyObsTest, CountersMatchHierarchyStats) {
  BuildFixture();
  SliceHierarchy hierarchy(*table_, *profit_, HierarchyOptions());
  const HierarchyStats& stats = hierarchy.stats();

  EXPECT_EQ(CounterValue("hierarchy.builds"), 1u);
  EXPECT_EQ(CounterValue("hierarchy.nodes_generated"),
            stats.nodes_generated);
  EXPECT_EQ(CounterValue("hierarchy.initial_slices"), stats.initial_slices);
  EXPECT_EQ(CounterValue("hierarchy.noncanonical_removed"),
            stats.noncanonical_removed);
  EXPECT_EQ(CounterValue("hierarchy.low_profit_pruned"),
            stats.low_profit_pruned);
  EXPECT_EQ(CounterValue("hierarchy.seeds_dropped"), stats.seeds_dropped);
  // Only Prop. 12 survivors are profit-evaluated, each exactly once.
  ASSERT_GT(stats.noncanonical_removed, 0u);
  EXPECT_EQ(CounterValue("hierarchy.profit_evals"),
            stats.nodes_generated - stats.noncanonical_removed);
  // The build-duration histogram saw this construction.
  const obs::Histogram* build_us =
      obs::Registry::Global().FindHistogram("hierarchy.build_us");
  ASSERT_NE(build_us, nullptr);
  EXPECT_EQ(build_us->Count(), 1u);
}

TEST_F(HierarchyObsTest, PerLevelNodeCountersMatchLevels) {
  BuildFixture();
  SliceHierarchy hierarchy(*table_, *profit_, HierarchyOptions());
  const HierarchyStats& stats = hierarchy.stats();
  ASSERT_GE(stats.max_level, 2u);

  uint64_t level_total = 0;
  for (size_t level = 1; level <= stats.max_level; ++level) {
    const uint64_t counted = CounterValue(
        "hierarchy.level." + std::to_string(level) + ".nodes");
    EXPECT_EQ(counted, hierarchy.nodes_at_level(level).size())
        << "level " << level;
    level_total += counted;
  }
  // Levels partition the node set (level metric names are capped at 16;
  // this fixture's hierarchy is far shallower).
  EXPECT_EQ(level_total, stats.nodes_generated);
}

TEST_F(HierarchyObsTest, DedupHitsCountRepeatedPropertySets) {
  BuildFixture();
  SliceHierarchy hierarchy(*table_, *profit_, HierarchyOptions());
  // Distinct entities share property sets and parent generation re-derives
  // shared ancestors, so a non-trivial source always dedups.
  EXPECT_GT(CounterValue("hierarchy.dedup_hits"), 0u);
}

TEST_F(HierarchyObsTest, ConcurrentBuildsFlushEveryLevel) {
  // Builds on several threads race to register the per-level counters on
  // first use; every flush must still land on the one registry entry. Each
  // thread builds its own copy of the seeded fixture, as framework shards
  // each own their table and profit context.
  constexpr size_t kThreads = 4;
  std::vector<std::unique_ptr<tests::RandomTableFixture>> fixtures(kThreads);
  std::vector<std::unique_ptr<SliceHierarchy>> built(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fixtures, &built, t] {
      fixtures[t] = std::make_unique<tests::RandomTableFixture>();
      built[t] = std::make_unique<SliceHierarchy>(
          *fixtures[t]->table, *fixtures[t]->profit, HierarchyOptions());
    });
  }
  for (auto& thread : threads) thread.join();

  const SliceHierarchy& hierarchy = *built[0];
  const HierarchyStats& stats = hierarchy.stats();
  EXPECT_EQ(CounterValue("hierarchy.builds"), kThreads);
  EXPECT_EQ(CounterValue("hierarchy.profit_evals"),
            kThreads * (stats.nodes_generated - stats.noncanonical_removed));
  for (size_t level = 1; level <= stats.max_level; ++level) {
    EXPECT_EQ(CounterValue("hierarchy.level." + std::to_string(level) +
                           ".nodes"),
              kThreads * hierarchy.nodes_at_level(level).size())
        << "level " << level;
  }
}

}  // namespace
}  // namespace core
}  // namespace midas
