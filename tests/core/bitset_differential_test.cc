// Differential tests: the dense bitset kernels must agree *exactly* —
// bit-identical doubles, identical vectors — with the legacy sorted-vector
// path on randomized fact tables spanning the dense/sparse threshold, and
// hierarchy construction must be invariant to thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "midas/core/bitset_kernels.h"
#include "midas/core/entity_bitset.h"
#include "midas/core/fact_table.h"
#include "midas/core/midas_alg.h"
#include "midas/core/profit.h"
#include "midas/core/slice_hierarchy.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/util/random.h"

namespace midas {
namespace core {
namespace {

struct DiffParam {
  const char* name;
  uint64_t seed;
  size_t min_entities;
  size_t max_entities;
  int tables;
};

/// One randomized source: facts + a KB knowing a random half of them.
struct RandomSource {
  std::shared_ptr<rdf::Dictionary> dict;
  std::unique_ptr<rdf::KnowledgeBase> kb;
  std::vector<rdf::Triple> facts;
};

RandomSource MakeRandomSource(Rng* rng, size_t min_entities,
                              size_t max_entities) {
  RandomSource src;
  src.dict = std::make_shared<rdf::Dictionary>();
  src.kb = std::make_unique<rdf::KnowledgeBase>(src.dict);

  const size_t n =
      min_entities + rng->Uniform(max_entities - min_entities + 1);
  const size_t num_preds = 2 + rng->Uniform(5);
  for (size_t e = 0; e < n; ++e) {
    rdf::TermId subj = src.dict->Intern("e" + std::to_string(e));
    for (size_t p = 0; p < num_preds; ++p) {
      if (!rng->Bernoulli(0.7)) continue;
      rdf::TermId pred = src.dict->Intern("p" + std::to_string(p));
      const size_t num_values = 1 + rng->Uniform(4);
      rdf::TermId obj = src.dict->Intern(
          "v" + std::to_string(p) + "_" + std::to_string(rng->Uniform(num_values)));
      rdf::Triple t(subj, pred, obj);
      src.facts.push_back(t);
      if (rng->Bernoulli(0.5)) src.kb->Add(t);
    }
  }
  // The fact table expects a duplicate-free T_W.
  std::sort(src.facts.begin(), src.facts.end());
  src.facts.erase(std::unique(src.facts.begin(), src.facts.end()),
                  src.facts.end());
  return src;
}

std::vector<PropertyId> RandomPropertySet(Rng* rng, size_t catalog_size) {
  const size_t k = 1 + rng->Uniform(3);
  std::vector<PropertyId> props;
  for (size_t i = 0; i < k; ++i) {
    props.push_back(static_cast<PropertyId>(rng->Uniform(catalog_size)));
  }
  std::sort(props.begin(), props.end());
  props.erase(std::unique(props.begin(), props.end()), props.end());
  return props;
}

void ExpectNodesIdentical(const SliceHierarchy& a, const SliceHierarchy& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const SliceNode& x = a.nodes()[i];
    const SliceNode& y = b.nodes()[i];
    ASSERT_EQ(x.properties, y.properties) << "node " << i;
    // EntityVector() bridges the representations: dense hierarchies keep
    // only the word block, sparse ones only the sorted vector.
    ASSERT_EQ(x.EntityVector(), y.EntityVector()) << "node " << i;
    ASSERT_EQ(x.total_facts, y.total_facts) << "node " << i;
    ASSERT_EQ(x.total_new, y.total_new) << "node " << i;
    // Bit-identical, not approximately equal: all totals are integral.
    ASSERT_EQ(x.profit, y.profit) << "node " << i;
    ASSERT_EQ(x.lb_profit, y.lb_profit) << "node " << i;
    ASSERT_EQ(x.lb_set, y.lb_set) << "node " << i;
    ASSERT_EQ(x.valid, y.valid) << "node " << i;
    ASSERT_EQ(x.removed, y.removed) << "node " << i;
    ASSERT_EQ(x.is_canonical, y.is_canonical) << "node " << i;
  }
  ASSERT_EQ(a.stats().nodes_generated, b.stats().nodes_generated);
  ASSERT_EQ(a.stats().noncanonical_removed, b.stats().noncanonical_removed);
  ASSERT_EQ(a.stats().low_profit_pruned, b.stats().low_profit_pruned);
}

void ExpectSlicesIdentical(const std::vector<DiscoveredSlice>& a,
                           const std::vector<DiscoveredSlice>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].entities, b[i].entities) << "slice " << i;
    ASSERT_EQ(a[i].num_facts, b[i].num_facts) << "slice " << i;
    ASSERT_EQ(a[i].num_new_facts, b[i].num_new_facts) << "slice " << i;
    ASSERT_EQ(a[i].profit, b[i].profit) << "slice " << i;
    ASSERT_EQ(a[i].properties.size(), b[i].properties.size()) << "slice " << i;
  }
}

class BitsetDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(BitsetDifferentialTest, DenseAgreesWithSparseEverywhere) {
  const DiffParam& param = GetParam();
  Rng rng(param.seed);

  FactTableOptions dense_opts;
  dense_opts.dense_index_min_entities = 0;  // force word blocks
  FactTableOptions sparse_opts;
  sparse_opts.dense_index_min_entities = std::numeric_limits<size_t>::max();

  for (int round = 0; round < param.tables; ++round) {
    RandomSource src =
        MakeRandomSource(&rng, param.min_entities, param.max_entities);
    if (src.facts.empty()) continue;

    FactTable dense(src.facts, dense_opts);
    FactTable sparse(src.facts, sparse_opts);
    ASSERT_TRUE(dense.dense());
    ASSERT_FALSE(sparse.dense());
    ASSERT_EQ(dense.catalog().size(), sparse.catalog().size());
    ASSERT_EQ(dense.num_entities(), sparse.num_entities());

    ProfitContext dense_profit(dense, *src.kb, CostModel::Default());
    ProfitContext sparse_profit(sparse, *src.kb, CostModel::Default());

    ProfitContext::SetAccumulator acc_dense(dense_profit);
    ProfitContext::SetAccumulator acc_sparse(sparse_profit);

    std::vector<std::vector<EntityId>> slice_lists;
    std::vector<EntityBitset> slice_bits;
    for (int q = 0; q < 8; ++q) {
      auto props = RandomPropertySet(&rng, dense.catalog().size());

      // MatchEntities: identical ascending vectors on both paths.
      std::vector<EntityId> got = dense.MatchEntities(props);
      std::vector<EntityId> want = sparse.MatchEntities(props);
      ASSERT_EQ(got, want);

      // MatchEntitiesInto agrees with the materialized list.
      EntityBitset bits;
      dense.MatchEntitiesInto(props, &bits);
      EntityBitset want_bits;
      want_bits.AssignList(want, dense.num_entities());
      ASSERT_TRUE(bits == want_bits);

      // SliceProfit: bit-identical on both contexts, and via cached totals.
      double p_dense = dense_profit.SliceProfit(got);
      double p_sparse = sparse_profit.SliceProfit(want);
      ASSERT_EQ(p_dense, p_sparse);
      uint64_t f = 0, fresh = 0;
      dense_profit.BitsetTotals(bits, &f, &fresh);
      ASSERT_EQ(dense_profit.SliceProfitFromTotals(f, fresh), p_sparse);

      // Incremental accumulators: delta and running profit agree exactly
      // between the bitset and sorted-vector paths.
      double delta_dense = acc_dense.DeltaIfAdd(bits);
      double delta_sparse = acc_sparse.DeltaIfAdd(want);
      ASSERT_EQ(delta_dense, delta_sparse);
      if (delta_dense > 0.0) {
        acc_dense.Add(bits);
        acc_sparse.Add(want);
        ASSERT_EQ(acc_dense.Profit(), acc_sparse.Profit());
        ASSERT_EQ(acc_dense.total_facts(), acc_sparse.total_facts());
        ASSERT_EQ(acc_dense.total_new(), acc_sparse.total_new());
      }

      slice_lists.push_back(std::move(want));
      slice_bits.push_back(std::move(bits));
    }

    // Set profit over all queried slices: pointer-list vs word-block union.
    std::vector<const std::vector<EntityId>*> list_ptrs;
    std::vector<const EntityBitset*> bit_ptrs;
    for (size_t i = 0; i < slice_lists.size(); ++i) {
      list_ptrs.push_back(&slice_lists[i]);
      bit_ptrs.push_back(&slice_bits[i]);
    }
    ASSERT_EQ(dense_profit.SetProfitBits(bit_ptrs),
              sparse_profit.SetProfit(list_ptrs));

    // Full-pipeline equality on a sample of tables: hierarchy construction
    // (dense vs sparse) and end-to-end detection.
    if (round % 10 == 0) {
      SliceHierarchy h_dense(dense, dense_profit, HierarchyOptions());
      SliceHierarchy h_sparse(sparse, sparse_profit, HierarchyOptions());
      ExpectNodesIdentical(h_dense, h_sparse);

      SourceInput input;
      input.url = "http://example.org/a/b";
      input.facts = &src.facts;
      MidasOptions dense_alg_opts;
      dense_alg_opts.fact_table = dense_opts;
      MidasOptions sparse_alg_opts;
      sparse_alg_opts.fact_table = sparse_opts;
      auto slices_dense = MidasAlg(dense_alg_opts).Detect(input, *src.kb);
      auto slices_sparse = MidasAlg(sparse_alg_opts).Detect(input, *src.kb);
      ExpectSlicesIdentical(slices_dense, slices_sparse);
    }
  }
}

// 1040 randomized tables spanning the default dense threshold (64 entities)
// from both sides, plus wider tables where the word blocks carry real work.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BitsetDifferentialTest,
    ::testing::Values(
        DiffParam{"tiny_sparse_side", 0xA11CE, 2, 40, 260},
        DiffParam{"around_threshold", 0xB0B, 40, 90, 260},
        DiffParam{"dense_side", 0xC0FFEE, 90, 160, 260},
        DiffParam{"wide", 0xD00D, 150, 320, 260}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(info.param.name);
    });

/// Runs end-to-end detection on wide tables (512+ entities, so the blocks
/// clear kernels::kMinDispatchWords and the dispatched table actually
/// executes) under a forced kernel backend.
std::vector<std::vector<DiscoveredSlice>> DetectUnderBackend(
    const char* backend, uint64_t seed) {
  EXPECT_TRUE(kernels::ForceBackendForTest(backend)) << backend;
  EXPECT_STREQ(kernels::Active().name, backend);
  FactTableOptions dense_opts;
  dense_opts.dense_index_min_entities = 0;
  MidasOptions alg_opts;
  alg_opts.fact_table = dense_opts;

  Rng rng(seed);
  std::vector<std::vector<DiscoveredSlice>> all;
  for (int round = 0; round < 12; ++round) {
    RandomSource src = MakeRandomSource(&rng, 520, 900);
    SourceInput input;
    input.url = "http://example.org/wide";
    input.facts = &src.facts;
    all.push_back(MidasAlg(alg_opts).Detect(input, *src.kb));
  }
  kernels::ForceBackendForTest(nullptr);
  return all;
}

// The SIMD backend must be bit-identical to the portable one — every kernel
// is an integral reduction or word-wise map, so there is no legitimate
// source of divergence. Same seed, same tables, slice-for-slice equality.
TEST(BitsetKernelBackendDifferentialTest, Avx2DetectionIsBitIdentical) {
  if (kernels::Avx2Kernels() == nullptr) {
    GTEST_SKIP() << "AVX2 unavailable on this machine";
  }
  const uint64_t seed = 0x51DEB00C;
  const auto portable = DetectUnderBackend("portable", seed);
  const auto avx2 = DetectUnderBackend("avx2", seed);
  ASSERT_EQ(portable.size(), avx2.size());
  for (size_t i = 0; i < portable.size(); ++i) {
    ExpectSlicesIdentical(portable[i], avx2[i]);
  }
}

}  // namespace
}  // namespace core
}  // namespace midas
