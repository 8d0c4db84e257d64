// Property-based tests: definitional invariants of the MIDAS formalism,
// checked over randomly generated workloads (parameterized across seeds and
// shapes). These pin the implementation to the paper's definitions rather
// than to specific outputs:
//
//   Def. 3/4  — fact-table and catalog consistency;
//   Def. 5    — every reported slice is (C, Π, Π*)-consistent: Π is exactly
//               the match set of C and Π* is exactly its entities' facts;
//   Def. 7/Prop. 12 — canonicality flags agree with the structural rule;
//   Def. 9    — reported profits equal the profit function recomputed from
//               scratch;
//   §III-A    — hierarchy structure: children have strict property
//               supersets and entity subsets; f_LB >= max(0, f(S)); only
//               Prop. 12 survivors are evaluated, also on a deadline stop;
//   Alg. 1    — the selected set never includes two slices where one
//               covers the other, and its set profit is positive.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_set>

#include "midas/core/midas.h"
#include "midas/synth/single_source.h"

namespace midas {
namespace core {
namespace {

struct WorkloadShape {
  size_t num_facts;
  size_t num_slices;
  size_t num_optimal;
  uint64_t seed;
};

class InvariantsTest : public ::testing::TestWithParam<WorkloadShape> {
 protected:
  void SetUp() override {
    synth::SingleSourceParams params;
    params.num_facts = GetParam().num_facts;
    params.num_slices = GetParam().num_slices;
    params.num_optimal = GetParam().num_optimal;
    params.seed = GetParam().seed;
    data_ = std::make_unique<synth::SingleSourceData>(
        synth::GenerateSingleSource(params));
    table_ = std::make_unique<FactTable>(data_->facts);
    profit_ = std::make_unique<ProfitContext>(*table_, *data_->kb,
                                              CostModel::Default());
  }

  /// Def. 5 and Def. 9 on one live node: Π is exactly the match set of C
  /// (in either representation), the cached totals are Π's facts, and the
  /// profit is the profit function of Π. Returns Π.
  std::vector<EntityId> ExpectEvaluatedPerDefinition(const SliceNode& node) {
    const std::vector<EntityId> entities = node.EntityVector();
    EXPECT_EQ(entities, table_->MatchEntities(node.properties.data(),
                                              node.properties.size()));
    uint64_t facts = 0, fresh = 0;
    profit_->EntityTotals(entities, &facts, &fresh);
    EXPECT_EQ(node.total_facts, facts);
    EXPECT_EQ(node.total_new, fresh);
    EXPECT_NEAR(node.profit, profit_->SliceProfit(entities), 1e-9);
    return entities;
  }

  std::unique_ptr<synth::SingleSourceData> data_;
  std::unique_ptr<FactTable> table_;
  std::unique_ptr<ProfitContext> profit_;
};

TEST_P(InvariantsTest, FactTableConsistency) {
  // Every input fact appears exactly once, under its subject's row.
  size_t total = 0;
  for (EntityId e = 0; e < table_->num_entities(); ++e) {
    for (const auto& fact : table_->entity_facts(e)) {
      EXPECT_EQ(fact.subject, table_->subject(e));
      ++total;
    }
    // Entity property list matches its facts' (pred, obj) pairs.
    std::set<PropertyId> from_facts;
    for (const auto& fact : table_->entity_facts(e)) {
      auto id = table_->catalog().Lookup(fact.predicate, fact.object);
      ASSERT_TRUE(id.has_value());
      from_facts.insert(*id);
    }
    std::set<PropertyId> listed(table_->entity_properties(e).begin(),
                                table_->entity_properties(e).end());
    EXPECT_EQ(from_facts, listed);
  }
  EXPECT_EQ(total, data_->facts.size());

  // Inverted lists agree with forward lists.
  for (PropertyId p = 0; p < table_->catalog().size(); ++p) {
    for (EntityId e : table_->property_entities(p)) {
      const auto& props = table_->entity_properties(e);
      EXPECT_TRUE(std::binary_search(props.begin(), props.end(), p));
    }
  }
}

TEST_P(InvariantsTest, HierarchyStructuralInvariants) {
  SliceHierarchy hierarchy(*table_, *profit_, HierarchyOptions());
  const auto& nodes = hierarchy.nodes();

  for (uint32_t i = 0; i < nodes.size(); ++i) {
    const SliceNode& node = nodes[i];
    EXPECT_EQ(node.level, node.properties.size());
    EXPECT_TRUE(
        std::is_sorted(node.properties.begin(), node.properties.end()));

    // Prop. 12 removed the node before it was ever evaluated.
    if (node.removed) {
      EXPECT_TRUE(node.EntityVector().empty());
      EXPECT_EQ(node.total_facts, 0u);
      EXPECT_EQ(node.profit, 0.0);
      continue;
    }

    // Live nodes carry Π (Def. 5) and profit (Def. 9).
    const std::vector<EntityId> entities = ExpectEvaluatedPerDefinition(node);

    // f_LB >= max(0, f(S)); S_LB achieves it.
    EXPECT_GE(node.lb_profit, 0.0);
    EXPECT_GE(node.lb_profit, node.profit - 1e-9);
    if (!node.lb_set.empty()) {
      std::vector<std::vector<EntityId>> lb_entities;
      lb_entities.reserve(node.lb_set.size());
      std::vector<const std::vector<EntityId>*> sets;
      for (uint32_t s : node.lb_set) {
        lb_entities.push_back(nodes[s].EntityVector());
        sets.push_back(&lb_entities.back());
      }
      EXPECT_NEAR(node.lb_profit, profit_->SetProfit(sets), 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(node.lb_profit, 0.0);
    }

    // Valid nodes are exactly those whose own profit is the best known
    // non-negative option in their subtree.
    if (node.valid) {
      EXPECT_GE(node.profit, 0.0);
      EXPECT_NEAR(node.lb_profit, node.profit, 1e-9);
    }

    // Edges: children carry strict property supersets and entity subsets.
    for (uint32_t c : node.children) {
      const SliceNode& child = nodes[c];
      EXPECT_TRUE(child.removed == false);
      EXPECT_GT(child.properties.size(), node.properties.size());
      EXPECT_TRUE(std::includes(child.properties.begin(),
                                child.properties.end(),
                                node.properties.begin(),
                                node.properties.end()));
      const std::vector<EntityId> child_entities = child.EntityVector();
      EXPECT_TRUE(std::includes(entities.begin(), entities.end(),
                                child_entities.begin(),
                                child_entities.end()));
    }

    // Prop. 12: canonicality flags agree with the structural rule.
    size_t canonical_children = 0;
    for (uint32_t c : node.children) {
      if (nodes[c].is_canonical) ++canonical_children;
    }
    EXPECT_EQ(node.is_canonical,
              node.is_initial || canonical_children >= 2);
  }
}

// A deadline stop (HierarchyStats.partial) leaves an unpruned lattice that
// the traversal still runs on (docs/ROBUSTNESS.md best-so-far contract), so
// every live node of a partial build must be evaluated per Def. 5/Def. 9.
TEST_P(InvariantsTest, PartialHierarchyIsEvaluatedAndTraversable) {
  const uint64_t start_ns = obs::NowNanos();
  { SliceHierarchy full(*table_, *profit_, HierarchyOptions()); }
  const uint64_t full_ns = obs::NowNanos() - start_ns;

  // Step 0 is already cancelled: the build stops at its first level
  // boundary. Later steps set deadlines inside a full build's span, so they
  // stop at deeper boundaries (or not at all); where each lands varies with
  // machine speed, and every stop point must hold the contract.
  for (uint64_t step = 0; step < 5; ++step) {
    fault::CancelToken cancel;
    if (step == 0) {
      cancel.Cancel();
    } else {
      cancel.SetDeadlineNs(obs::NowNanos() + full_ns * step / 5);
    }
    HierarchyOptions options;
    options.cancel = &cancel;
    SliceHierarchy hierarchy(*table_, *profit_, options);
    if (step == 0) {
      ASSERT_TRUE(hierarchy.stats().partial);
      EXPECT_EQ(hierarchy.stats().noncanonical_removed, 0u);
    }
    for (const SliceNode& node : hierarchy.nodes()) {
      if (!node.removed) ExpectEvaluatedPerDefinition(node);
    }

    for (uint32_t index : MidasAlg::Traverse(&hierarchy)) {
      const SliceNode& node = hierarchy.nodes()[index];
      EXPECT_FALSE(node.removed);
      EXPECT_TRUE(node.valid);
      EXPECT_FALSE(node.EntityVector().empty());
    }
  }
}

TEST_P(InvariantsTest, ReportedSlicesAreDefinitionConsistent) {
  MidasAlg alg;
  SourceInput input;
  input.url = data_->url;
  input.facts = &data_->facts;
  auto slices = alg.Detect(input, *data_->kb);

  for (const auto& slice : slices) {
    ASSERT_FALSE(slice.properties.empty());
    ASSERT_FALSE(slice.entities.empty());
    EXPECT_EQ(slice.num_facts, slice.facts.size());
    EXPECT_GT(slice.profit, 0.0);

    // Π == match set of C over the fact table.
    std::vector<PropertyId> props;
    for (const auto& pair : slice.properties) {
      auto id = table_->catalog().Lookup(pair.predicate, pair.value);
      ASSERT_TRUE(id.has_value());
      props.push_back(*id);
    }
    std::sort(props.begin(), props.end());
    auto match = table_->MatchEntities(props);
    std::vector<rdf::TermId> subjects;
    for (EntityId e : match) subjects.push_back(table_->subject(e));
    std::sort(subjects.begin(), subjects.end());
    std::vector<rdf::TermId> reported = slice.entities;
    std::sort(reported.begin(), reported.end());
    EXPECT_EQ(subjects, reported);

    // Π* == all facts of Π, and num_new matches the KB.
    size_t expected_facts = 0, expected_new = 0;
    for (EntityId e : match) {
      expected_facts += table_->entity_facts(e).size();
      for (const auto& fact : table_->entity_facts(e)) {
        if (!data_->kb->Contains(fact)) ++expected_new;
      }
    }
    EXPECT_EQ(slice.num_facts, expected_facts);
    EXPECT_EQ(slice.num_new_facts, expected_new);

    // Reported profit is the profit function, recomputed.
    EXPECT_NEAR(slice.profit, profit_->SliceProfit(match), 1e-9);
  }
}

TEST_P(InvariantsTest, SelectionIsNonRedundantAndProfitable) {
  MidasAlg alg;
  SourceInput input;
  input.url = data_->url;
  input.facts = &data_->facts;
  auto slices = alg.Detect(input, *data_->kb);
  if (slices.empty()) return;

  // No reported slice's entity set contains another's (Alg. 1 covers the
  // subtree of every selected slice).
  std::vector<std::set<rdf::TermId>> entity_sets;
  for (const auto& s : slices) {
    entity_sets.emplace_back(s.entities.begin(), s.entities.end());
  }
  for (size_t i = 0; i < entity_sets.size(); ++i) {
    for (size_t j = 0; j < entity_sets.size(); ++j) {
      if (i == j) continue;
      bool contains =
          std::includes(entity_sets[i].begin(), entity_sets[i].end(),
                        entity_sets[j].begin(), entity_sets[j].end());
      EXPECT_FALSE(contains)
          << "slice " << i << " contains slice " << j;
    }
  }

  // The selected set has positive total profit and every prefix of the
  // selection improved it (Alg. 1's acceptance test).
  std::vector<const std::vector<EntityId>*> sets;
  std::vector<std::vector<EntityId>> ids;
  ids.reserve(slices.size());
  for (const auto& s : slices) {
    std::vector<EntityId> es;
    for (rdf::TermId subject : s.entities) {
      EntityId e = table_->FindEntity(subject);
      ASSERT_NE(e, kInvalidIndex);
      es.push_back(e);
    }
    std::sort(es.begin(), es.end());
    ids.push_back(std::move(es));
  }
  for (const auto& es : ids) sets.push_back(&es);
  EXPECT_GT(profit_->SetProfit(sets), 0.0);
}

TEST_P(InvariantsTest, DetectionIsDeterministic) {
  MidasAlg alg;
  SourceInput input;
  input.url = data_->url;
  input.facts = &data_->facts;
  auto a = alg.Detect(input, *data_->kb);
  auto b = alg.Detect(input, *data_->kb);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].properties.size(), b[i].properties.size());
    EXPECT_EQ(a[i].entities, b[i].entities);
    EXPECT_DOUBLE_EQ(a[i].profit, b[i].profit);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, InvariantsTest,
    ::testing::Values(WorkloadShape{500, 5, 2, 1},
                      WorkloadShape{1000, 10, 5, 2},
                      WorkloadShape{2000, 20, 10, 3},
                      WorkloadShape{3000, 20, 1, 4},
                      WorkloadShape{1500, 8, 8, 5},
                      WorkloadShape{800, 4, 0, 6},
                      WorkloadShape{4000, 25, 12, 7}),
    [](const ::testing::TestParamInfo<WorkloadShape>& info) {
      return "n" + std::to_string(info.param.num_facts) + "_b" +
             std::to_string(info.param.num_slices) + "_m" +
             std::to_string(info.param.num_optimal) + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace core
}  // namespace midas
