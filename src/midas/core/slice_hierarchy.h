#ifndef MIDAS_CORE_SLICE_HIERARCHY_H_
#define MIDAS_CORE_SLICE_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "midas/core/entity_bitset.h"
#include "midas/core/fact_table.h"
#include "midas/core/profit.h"
#include "midas/core/small_vec.h"
#include "midas/core/types.h"
#include "midas/core/word_arena.h"
#include "midas/fault/cancel.h"
#include "midas/obs/metrics.h"

namespace midas {
namespace core {

/// Tuning knobs for hierarchy construction. The defaults are safe for the
/// fact densities automated extraction produces; the caps only exist to
/// bound pathological sources (an entity with dozens of multi-valued
/// predicates would otherwise explode the initial-combination product).
struct HierarchyOptions {
  /// Per-entity property budget; if an entity carries more properties, the
  /// least-shared ones (smallest inverted lists) are dropped from its
  /// initial slices.
  size_t max_properties_per_entity = 16;

  /// Cap on initial slices minted per entity (cartesian product over
  /// multi-valued predicates is cut off here).
  size_t max_initial_slices_per_entity = 64;

  /// Hard cap on total hierarchy nodes for one source.
  size_t max_nodes = 2'000'000;

  /// Optional cooperative deadline/cancel budget. Checked at level
  /// boundaries only, so an expiring budget never leaves a half-pruned
  /// level: construction stops after the current level, evaluates every
  /// live node not evaluated yet, and sets HierarchyStats.partial. Null =
  /// unbounded. Must outlive construction.
  const fault::CancelToken* cancel = nullptr;
};

/// One node of the slice lattice. A node is identified by its property set;
/// its entity set is the full match Π = σ_C(F_W) (which can exceed the set
/// of entities whose initial slices generated it — see paper Fig. 4, S4).
///
/// The per-node collections use inline small-vector storage: construction
/// mints thousands of nodes, and with heap-backed vectors malloc/free is
/// the single largest cost of building a hierarchy on small sources.
struct SliceNode {
  /// C — sorted property ids.
  SmallVec<PropertyId, 8> properties;
  /// Π — sorted entity ids (full match over the fact table). Populated
  /// only on sparse tables; dense tables keep just the word block (the
  /// kernels never need the vector — see EntityVector()).
  std::vector<EntityId> entities;
  /// Π as a word block, populated when the fact table is dense(). The
  /// traversal and lower-bound kernels run on this.
  EntityBitset bits;

  /// Π as a sorted vector regardless of representation; materializes from
  /// the word block on dense tables (selected nodes only — hot paths stay
  /// on the words).
  std::vector<EntityId> EntityVector() const {
    return bits.universe() > 0 ? bits.ToVector() : entities;
  }

  /// |Π*| and |Π* \ E| — cached once when the node is evaluated (after
  /// Prop. 12 keeps it; removed nodes are never evaluated and keep Π
  /// empty and every total 0). Every later profit query on this node is
  /// O(1) from these.
  uint64_t total_facts = 0;
  uint64_t total_new = 0;

  /// f({S}) under the run's cost model.
  double profit = 0.0;
  /// f_LB(S): best non-negative profit achievable by slices in the subtree.
  double lb_profit = 0.0;
  /// S_LB(S): node indices achieving lb_profit (empty set == profit 0).
  SmallVec<uint32_t, 4> lb_set;

  /// Lattice edges (live lists; edited when non-canonical nodes are
  /// removed). Children have strictly more properties.
  SmallVec<uint32_t, 6> children;
  SmallVec<uint32_t, 6> parents;

  /// |C| — the node's level in the hierarchy.
  uint32_t level = 0;

  /// Created as an initial slice (from an entity, or a framework seed).
  bool is_initial = false;
  /// Canonical per Prop. 12 (initial, or >= 2 canonical children).
  bool is_canonical = false;
  /// Not pruned as low-profit. Only valid nodes are candidates in the
  /// top-down traversal.
  bool valid = true;
  /// Structurally removed (non-canonical). Removed nodes are skipped
  /// everywhere.
  bool removed = false;
  /// Covered by a slice selected earlier in the top-down traversal
  /// (Algorithm 1 state; unused during construction).
  bool covered = false;
};

/// Generates the per-entity initial property sets for `entities` (paper
/// "Generating initial slices"): for each entity, one combination of its
/// properties per choice of value on multi-valued predicates, subject to the
/// option caps. Exposed so the framework can seed a hierarchy with child
/// slices plus fresh initial sets for entities the children do not cover.
std::vector<std::vector<PropertyId>> BuildEntityInitialSets(
    const FactTable& table, const std::vector<EntityId>& entities,
    const HierarchyOptions& options);

/// Counters reported by construction, consumed by tests and the ablation
/// benches.
struct HierarchyStats {
  size_t initial_slices = 0;
  size_t nodes_generated = 0;
  size_t noncanonical_removed = 0;
  size_t low_profit_pruned = 0;
  size_t max_level = 0;
  bool node_cap_hit = false;
  /// Initial seeds discarded because the node cap prevented minting a new
  /// node for them (seeds deduplicating into existing nodes still count as
  /// initial slices even after the cap is hit).
  size_t seeds_dropped = 0;
  /// The construction deadline expired: levels below the stop point were
  /// generated + evaluated but not pruned, so the traversal still runs —
  /// the result is best-so-far, not the full pruned lattice.
  bool partial = false;
};

/// Per-level construction counters, "hierarchy.level.<level>.<metric>",
/// which SliceHierarchy flushes after each level: nodes at the level, dedup
/// hits while generating its parents, and the level's wall time in µs.
/// Levels above 16 share one "16plus" bucket so a deep hierarchy cannot
/// explode metric cardinality.
enum class HierarchyLevelMetric { kNodes, kDedupHits, kEvalUs };

/// The registry counter for (level >= 1, metric). Registered on first use
/// and cached, so every later call is a load — no lock, no string build.
obs::Counter* HierarchyLevelCounter(size_t level, HierarchyLevelMetric what);

/// The bottom-up constructed, pruned slice hierarchy of one web source
/// (paper §III-A1). Construction:
///
///   1. Mint initial slices: one per combination of an entity's properties
///      with one property per predicate (paper "Generating initial
///      slices"), or from caller-provided seeds (framework mode).
///   2. For level l = L .. 1:
///        a. generate every node's parents at level l−1 (Apriori-style
///           one-property removal, deduplicated by property set);
///        b. determine canonicality of level-l nodes (Prop. 12) and
///           structurally remove non-canonical ones, re-linking their
///           children to their parents unless already reachable;
///        c. evaluate the surviving level-l nodes (full entity match Π,
///           cached totals, profit), then compute their f_LB / S_LB and
///           mark low-profit nodes invalid.
///
/// Evaluation waits until Prop. 12 has kept a node: nothing between minting
/// and removal reads Π or profit (canonicality and re-linking read flags
/// and property sets only), so the non-canonical majority of minted nodes
/// is never matched or priced. Construction is serial; the framework runs
/// sources in parallel around it.
class SliceHierarchy {
 public:
  /// Builds the hierarchy with per-entity initial slices.
  SliceHierarchy(const FactTable& table, const ProfitContext& profit,
                 const HierarchyOptions& options);

  /// Builds the hierarchy from framework seeds (each a property set interned
  /// in `table`'s catalog). Empty seed sets are ignored.
  SliceHierarchy(const FactTable& table, const ProfitContext& profit,
                 const std::vector<std::vector<PropertyId>>& seeds,
                 const HierarchyOptions& options);

  const std::vector<SliceNode>& nodes() const { return nodes_; }
  SliceNode& mutable_node(uint32_t index) { return nodes_[index]; }

  /// Node indices at `level` (1-based; includes removed/invalid nodes —
  /// callers filter by flags).
  const std::vector<uint32_t>& nodes_at_level(size_t level) const;

  /// Highest populated level.
  size_t max_level() const { return stats_.max_level; }

  const HierarchyStats& stats() const { return stats_; }
  const FactTable& table() const { return table_; }
  const ProfitContext& profit_context() const { return profit_; }

 private:
  /// Scratch for lower-bound computation: a reusable set-profit
  /// accumulator plus epoch-marked node dedup — no allocation per node in
  /// steady state.
  struct LbScratch;

  void Build(const std::vector<std::vector<PropertyId>>& initial_sets);

  /// Returns the node index for a sorted property set, creating an
  /// unevaluated node shell (entity match and profit deferred to
  /// EvaluateNodes) if new; the set is copied only on creation. Returns
  /// kInvalidIndex if the node cap is hit. The second form takes the
  /// precomputed commutative set hash (parent generation derives it in
  /// O(1) from the child's).
  uint32_t GetOrCreateNode(const std::vector<PropertyId>& properties);
  uint32_t GetOrCreateNode(const std::vector<PropertyId>& properties,
                           uint64_t hash);

  /// Evaluates each node of `batch`: full entity match (word-wise AND when
  /// dense, into an arena block), cached totals, profit.
  void EvaluateNodes(const std::vector<uint32_t>& batch);
  void EvaluateNode(uint32_t index);

  /// Links parent -> child if absent.
  void LinkEdge(uint32_t parent, uint32_t child);

  /// True iff `child_props` is a strict superset of some live child y != via
  /// of `parent` (i.e. the child is already reachable from parent through
  /// another node).
  bool ReachableViaOther(uint32_t parent, uint32_t child, uint32_t via) const;

  void RemoveNonCanonical(uint32_t index);
  void ComputeLowerBound(uint32_t index, LbScratch* scratch);

  /// Open-addressed property-set index (hash -> node), linear probing over
  /// power-of-two capacity. Dedup is the single hottest lookup of
  /// construction; a flat table avoids the per-bucket allocations and
  /// pointer chasing of unordered_map. Hash collisions are resolved by the
  /// property-set equality check in GetOrCreateNode.
  struct SetIndex {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> slots;  // kInvalidIndex = empty
    size_t size = 0;

    void Reserve(size_t expected_nodes);
    void Insert(uint64_t hash, uint32_t node);
    /// First probe slot for `hash`; the caller walks with NextSlot until an
    /// empty slot terminates the cluster.
    size_t SlotFor(uint64_t hash) const {
      return static_cast<size_t>(hash) & (slots.size() - 1);
    }
    size_t NextSlot(size_t slot) const { return (slot + 1) & (slots.size() - 1); }

   private:
    void Grow(size_t min_capacity);
  };

  const FactTable& table_;
  const ProfitContext& profit_;
  HierarchyOptions options_;
  std::vector<SliceNode> nodes_;
  std::vector<std::vector<uint32_t>> by_level_;
  SetIndex set_index_;
  /// Backing store for dense nodes' entity word blocks: bump allocations
  /// instead of one heap vector per node. Must outlive nodes_ (never freed
  /// before the hierarchy itself).
  WordArena arena_;
  HierarchyStats stats_;
  /// Dedup hits in GetOrCreateNode (serial walk, plain counter); flushed
  /// per level and in aggregate to the shared obs registry by Build.
  uint64_t dedup_hits_ = 0;
};

}  // namespace core
}  // namespace midas

#endif  // MIDAS_CORE_SLICE_HIERARCHY_H_
