#include "midas/core/slice_hierarchy.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "midas/fault/fault.h"
#include "midas/obs/obs.h"
#include "midas/util/hash.h"
#include "midas/util/logging.h"

namespace midas {
namespace core {

namespace {

// Zobrist-style commutative hash: XOR of per-property mixes. Deleting a
// property is one more XOR, so parent generation derives every candidate's
// hash from its child's in O(1) instead of rehashing the whole set.
uint64_t HashPropertySet(const std::vector<PropertyId>& props) {
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (PropertyId p : props) h ^= HashMix(p);
  return h;
}

// True iff `a` is a strict subset of `b` (both sorted ascending; any
// random-access containers of PropertyId).
template <typename A, typename B>
bool IsStrictSubset(const A& a, const B& b) {
  return a.size() < b.size() &&
         std::includes(b.begin(), b.end(), a.begin(), a.end());
}

template <typename Vec>
void EraseValue(Vec* v, uint32_t value) {
  auto* new_end = std::remove(v->begin(), v->end(), value);
  v->truncate(static_cast<size_t>(new_end - v->begin()));
}

}  // namespace

obs::Counter* HierarchyLevelCounter(size_t level, HierarchyLevelMetric what) {
  constexpr size_t kLevelMetricCap = 16;
  constexpr size_t kNumMetrics = 3;
  static std::atomic<obs::Counter*> cache[kLevelMetricCap + 1][kNumMetrics];
  const auto metric = static_cast<size_t>(what);
  std::atomic<obs::Counter*>& slot =
      cache[std::min(std::max<size_t>(level, 1), kLevelMetricCap + 1) - 1]
           [metric];
  obs::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Racing first uses resolve the same registry entry.
    static constexpr const char* kWhat[kNumMetrics] = {"nodes", "dedup_hits",
                                                       "eval_us"};
    const std::string bucket =
        level > kLevelMetricCap ? "16plus" : std::to_string(level);
    counter = obs::Registry::Global().GetCounter("hierarchy.level." + bucket +
                                                 "." + kWhat[metric]);
    slot.store(counter, std::memory_order_release);
  }
  return counter;
}

/// See header: reusable set-profit accumulator + epoch-marked node dedup,
/// one instance per build.
struct SliceHierarchy::LbScratch {
  explicit LbScratch(const ProfitContext& ctx) : acc(ctx) {}

  ProfitContext::SetAccumulator acc;
  std::vector<uint32_t> collect;
  /// Epoch stamps indexed by node id (grown per level, never shrunk).
  std::vector<uint64_t> seen;
  uint64_t epoch = 0;
  /// Dense-path union scratch (sized on first use, then reused).
  EntityBitset union_bits;
};

SliceHierarchy::SliceHierarchy(const FactTable& table,
                               const ProfitContext& profit,
                               const HierarchyOptions& options)
    : table_(table), profit_(profit), options_(options) {
  std::vector<EntityId> all(table.num_entities());
  for (EntityId e = 0; e < all.size(); ++e) all[e] = e;
  Build(BuildEntityInitialSets(table, all, options));
}

SliceHierarchy::SliceHierarchy(
    const FactTable& table, const ProfitContext& profit,
    const std::vector<std::vector<PropertyId>>& seeds,
    const HierarchyOptions& options)
    : table_(table), profit_(profit), options_(options) {
  Build(seeds);
}

std::vector<std::vector<PropertyId>> BuildEntityInitialSets(
    const FactTable& table, const std::vector<EntityId>& entities,
    const HierarchyOptions& options) {
  std::vector<std::vector<PropertyId>> sets;
  sets.reserve(entities.size());
  // Scratch reused across entities: the per-entity walk allocates only the
  // emitted sets (this routine is half of hierarchy-construction time on
  // per-entity seeding, so no maps or intermediate combo lists here).
  std::vector<std::pair<rdf::TermId, PropertyId>> tagged;
  std::vector<size_t> group_end;  // end offset of each predicate group
  std::vector<size_t> odometer;   // current pick within each group
  std::vector<PropertyId> combo;
  for (EntityId e : entities) {
    const std::vector<PropertyId>& props = table.entity_properties(e);
    tagged.clear();
    for (PropertyId p : props) {
      tagged.emplace_back(table.catalog().predicate(p), p);
    }

    // Enforce the per-entity property budget by dropping the least-shared
    // properties (they define the least reusable slices). Selection only —
    // no full sort; ties break on property id to stay deterministic.
    if (tagged.size() > options.max_properties_per_entity) {
      std::nth_element(
          tagged.begin(),
          tagged.begin() +
              static_cast<std::ptrdiff_t>(options.max_properties_per_entity),
          tagged.end(), [&table](const auto& a, const auto& b) {
            const size_t sa = table.property_entities(a.second).size();
            const size_t sb = table.property_entities(b.second).size();
            return sa != sb ? sa > sb : a.second < b.second;
          });
      tagged.resize(options.max_properties_per_entity);
    }

    // Group by predicate, ascending: an initial slice takes one property
    // per predicate (paper "Generating initial slices").
    std::sort(tagged.begin(), tagged.end());
    group_end.clear();
    for (size_t i = 0; i < tagged.size();) {
      size_t j = i + 1;
      while (j < tagged.size() && tagged[j].first == tagged[i].first) ++j;
      group_end.push_back(j);
      i = j;
    }
    if (group_end.empty()) continue;

    // Cartesian product over predicate groups (last group varies fastest),
    // cut off at the cap.
    odometer.assign(group_end.size(), 0);
    for (size_t emitted = 0; emitted < options.max_initial_slices_per_entity;
         ++emitted) {
      combo.clear();
      size_t begin = 0;
      for (size_t g = 0; g < group_end.size(); ++g) {
        combo.push_back(tagged[begin + odometer[g]].second);
        begin = group_end[g];
      }
      std::sort(combo.begin(), combo.end());
      sets.push_back(combo);

      size_t g = group_end.size();
      while (g > 0) {
        --g;
        const size_t begin_g = g == 0 ? 0 : group_end[g - 1];
        if (begin_g + ++odometer[g] < group_end[g]) break;
        odometer[g] = 0;
      }
      if (g == 0 && odometer[0] == 0) break;  // odometer wrapped: all done
    }
  }
  return sets;
}

void SliceHierarchy::Build(
    const std::vector<std::vector<PropertyId>>& initial_sets) {
  MIDAS_OBS_SPAN(build_span, "hierarchy.build");
  const uint64_t build_start_ns = MIDAS_OBS_NOW_NS();
  (void)build_start_ns;  // unused in a MIDAS_OBS_NOOP build

  // Mint initial nodes (deduplicated by property set). A cap hit only
  // drops the seed at hand: later seeds may still dedup into existing
  // nodes, so keep going and count what the cap cost us. Per-entity seeds
  // arrive sorted and unique; only irregular framework seeds pay the
  // normalization copy.
  set_index_.Reserve(initial_sets.size());
  // Parent generation grows the lattice a few-fold past the seeds on
  // per-entity seeding; reserving that up front avoids rehoming the node
  // array mid-build (bounded so degenerate seed counts don't overcommit).
  nodes_.reserve(std::min(initial_sets.size() * 4,
                          std::min<size_t>(options_.max_nodes, 16384)));
  std::vector<PropertyId> seed_scratch;
  for (const auto& set : initial_sets) {
    if (set.empty()) continue;
    const std::vector<PropertyId>* key = &set;
    if (!std::is_sorted(set.begin(), set.end()) ||
        std::adjacent_find(set.begin(), set.end()) != set.end()) {
      seed_scratch.assign(set.begin(), set.end());
      std::sort(seed_scratch.begin(), seed_scratch.end());
      seed_scratch.erase(std::unique(seed_scratch.begin(), seed_scratch.end()),
                         seed_scratch.end());
      key = &seed_scratch;
    }
    uint32_t idx = GetOrCreateNode(*key);
    if (idx == kInvalidIndex) {
      ++stats_.seeds_dropped;
      continue;
    }
    if (!nodes_[idx].is_initial) {
      nodes_[idx].is_initial = true;
      ++stats_.initial_slices;
    }
  }

  // Lower-bound scratch, reused across all levels.
  LbScratch lb_scratch(profit_);
  // Canonical survivors of the current level (refilled per level).
  std::vector<uint32_t> lb_batch;
  // Parent-generation scratch, reused across all nodes and levels.
  std::vector<PropertyId> props_scratch;
  std::vector<PropertyId> parent_set;

  const size_t top_level = stats_.max_level;
  for (size_t level = top_level; level >= 1; --level) {
    // Deadline check at the level boundary. Levels above this one are
    // pruned and their survivors evaluated; this level and those below are
    // unpruned and unevaluated. Evaluating them before stopping leaves a
    // traversable (if unpruned) lattice — the best-so-far contract of
    // docs/ROBUSTNESS.md.
    if (options_.cancel != nullptr && options_.cancel->Expired()) {
      stats_.partial = true;
      MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.deadline_stops"), 1);
      for (size_t l = 1; l <= level && l < by_level_.size(); ++l) {
        EvaluateNodes(by_level_[l]);
      }
      break;
    }
    const uint64_t level_start_ns = MIDAS_OBS_NOW_NS();
    const uint64_t level_dedup_before = dedup_hits_;
    (void)level_start_ns;  // unused in a MIDAS_OBS_NOOP build
    (void)level_dedup_before;
    // (a) Construct parents at level-1 before pruning this level, so that
    // removing a non-canonical node can re-link its children upward. The
    // minted shells stay unevaluated until their own level is pruned.
    if (level >= 2 && level < by_level_.size()) {
      // Note: by_level_[level] is final here — parents land at level-1.
      for (uint32_t idx : by_level_[level]) {
        // Copied into scratch: GetOrCreateNode may grow nodes_ and
        // invalidate references into it.
        props_scratch.assign(nodes_[idx].properties.begin(),
                             nodes_[idx].properties.end());
        const uint64_t node_hash = HashPropertySet(props_scratch);
        for (size_t skip = 0; skip < props_scratch.size(); ++skip) {
          parent_set.clear();
          for (size_t i = 0; i < props_scratch.size(); ++i) {
            if (i != skip) parent_set.push_back(props_scratch[i]);
          }
          uint32_t parent = GetOrCreateNode(
              parent_set, node_hash ^ HashMix(props_scratch[skip]));
          if (parent == kInvalidIndex) continue;
          // Fresh edge by construction — distinct skips yield distinct
          // parents, and re-linked edges always span two levels — so no
          // duplicate check (unlike LinkEdge).
          nodes_[parent].children.push_back(idx);
          nodes_[idx].parents.push_back(parent);
        }
      }
    }

    // (b) + (c) Prune level: canonicality, then evaluation and profit
    // lower bounds for the survivors.
    if (level < by_level_.size()) {
      const std::vector<uint32_t>& level_nodes = by_level_[level];

      // Canonicality flags (Prop. 12) read only deeper-level state, which
      // is final — safe to compute for the whole level at once.
      for (uint32_t idx : level_nodes) {
        SliceNode& node = nodes_[idx];
        size_t canonical_children = 0;
        for (uint32_t c : node.children) {
          if (!nodes_[c].removed && nodes_[c].is_canonical) {
            ++canonical_children;
          }
        }
        node.is_canonical = node.is_initial || canonical_children >= 2;
      }

      // Structural removals stay serial in level order: re-linking edits
      // edge lists on the adjacent levels.
      lb_batch.clear();
      for (uint32_t idx : level_nodes) {
        if (!nodes_[idx].is_canonical) {
          RemoveNonCanonical(idx);
          ++stats_.noncanonical_removed;
        } else {
          lb_batch.push_back(idx);
        }
      }

      // Only survivors are evaluated; a lower bound reads the node's own
      // profit and its (deeper, already evaluated) children's S_LB sets.
      EvaluateNodes(lb_batch);
      for (uint32_t idx : lb_batch) {
        ComputeLowerBound(idx, &lb_scratch);
        if (!nodes_[idx].valid) ++stats_.low_profit_pruned;
      }
    }

    // Flush this level's construction tallies to the shared registry
    // (nodes at the level are final once its parents exist).
    if (level < by_level_.size()) {
      MIDAS_OBS_ADD(
          HierarchyLevelCounter(level, HierarchyLevelMetric::kNodes),
          by_level_[level].size());
    }
    MIDAS_OBS_ADD(
        HierarchyLevelCounter(level, HierarchyLevelMetric::kDedupHits),
        dedup_hits_ - level_dedup_before);
    MIDAS_OBS_ADD(HierarchyLevelCounter(level, HierarchyLevelMetric::kEvalUs),
                  (MIDAS_OBS_NOW_NS() - level_start_ns) / 1000);
  }

  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.builds"), 1);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.nodes_generated"),
                stats_.nodes_generated);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.initial_slices"),
                stats_.initial_slices);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.noncanonical_removed"),
                stats_.noncanonical_removed);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.low_profit_pruned"),
                stats_.low_profit_pruned);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.seeds_dropped"),
                stats_.seeds_dropped);
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.dedup_hits"), dedup_hits_);
  MIDAS_OBS_RECORD(MIDAS_OBS_HISTOGRAM("hierarchy.build_us"),
                   (MIDAS_OBS_NOW_NS() - build_start_ns) / 1000);
}

void SliceHierarchy::SetIndex::Reserve(size_t expected_nodes) {
  Grow(expected_nodes * 2);
}

void SliceHierarchy::SetIndex::Grow(size_t min_capacity) {
  size_t cap = slots.empty() ? 64 : slots.size();
  while (cap < min_capacity) cap *= 2;
  if (cap == slots.size()) return;
  std::vector<uint64_t> old_hashes = std::move(hashes);
  std::vector<uint32_t> old_slots = std::move(slots);
  hashes.assign(cap, 0);
  slots.assign(cap, kInvalidIndex);
  for (size_t i = 0; i < old_slots.size(); ++i) {
    if (old_slots[i] == kInvalidIndex) continue;
    size_t s = static_cast<size_t>(old_hashes[i]) & (cap - 1);
    while (slots[s] != kInvalidIndex) s = (s + 1) & (cap - 1);
    hashes[s] = old_hashes[i];
    slots[s] = old_slots[i];
  }
}

void SliceHierarchy::SetIndex::Insert(uint64_t hash, uint32_t node) {
  // Grow at 3/4 load to keep probe clusters short.
  if ((size + 1) * 4 > slots.size() * 3) {
    Grow(std::max<size_t>(64, slots.size() * 2));
  }
  size_t s = SlotFor(hash);
  while (slots[s] != kInvalidIndex) s = NextSlot(s);
  hashes[s] = hash;
  slots[s] = node;
  ++size;
}

uint32_t SliceHierarchy::GetOrCreateNode(
    const std::vector<PropertyId>& properties) {
  return GetOrCreateNode(properties, HashPropertySet(properties));
}

uint32_t SliceHierarchy::GetOrCreateNode(
    const std::vector<PropertyId>& properties, uint64_t hash) {
  for (size_t s = set_index_.SlotFor(hash);
       set_index_.slots[s] != kInvalidIndex; s = set_index_.NextSlot(s)) {
    const auto& candidate = nodes_[set_index_.slots[s]].properties;
    if (set_index_.hashes[s] == hash &&
        candidate.size() == properties.size() &&
        std::equal(candidate.begin(), candidate.end(), properties.begin())) {
      ++dedup_hits_;
      return set_index_.slots[s];
    }
  }
  if (nodes_.size() >= options_.max_nodes) {
    if (!stats_.node_cap_hit) {
      stats_.node_cap_hit = true;
      MIDAS_LOG(Warning) << "slice hierarchy node cap (" << options_.max_nodes
                         << ") hit; results may be partial";
    }
    return kInvalidIndex;
  }

  // Fault site: a failed node allocation mid-construction, keyed by the
  // prospective node index so the decision is stable per build shape.
  MIDAS_FAULT_MAYBE_BAD_ALLOC(fault::kSiteAlloc,
                              std::to_string(nodes_.size()));

  // Shell only: entity match and profit are deferred to EvaluateNodes,
  // which runs only if Prop. 12 keeps the node. The property set is copied
  // only here — dedup hits (the common case) never allocate.
  SliceNode node;
  node.level = static_cast<uint32_t>(properties.size());
  node.properties.assign(properties.begin(), properties.end());

  uint32_t idx = static_cast<uint32_t>(nodes_.size());
  if (by_level_.size() <= node.level) by_level_.resize(node.level + 1);
  by_level_[node.level].push_back(idx);
  stats_.max_level = std::max<size_t>(stats_.max_level, node.level);
  ++stats_.nodes_generated;
  set_index_.Insert(hash, idx);
  nodes_.push_back(std::move(node));
  return idx;
}

void SliceHierarchy::EvaluateNodes(const std::vector<uint32_t>& batch) {
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("hierarchy.profit_evals"), batch.size());
  for (uint32_t index : batch) EvaluateNode(index);
}

void SliceHierarchy::EvaluateNode(uint32_t index) {
  SliceNode& node = nodes_[index];
  uint64_t facts = 0, fresh = 0;
  if (table_.dense()) {
    node.bits.ResetIn(table_.num_entities(), &arena_);
    // Fused intersect + totals: one write pass over the node's word block.
    constexpr size_t kMaxFused = 32;
    const size_t k = node.properties.size();
    if (k >= 1 && k <= kMaxFused) {
      const uint64_t* sets[kMaxFused];
      for (size_t i = 0; i < k; ++i) {
        sets[i] = table_.property_bits(node.properties[i]).words();
      }
      profit_.IntersectTotals(sets, k, &node.bits, &facts, &fresh);
    } else {
      table_.MatchEntitiesInto(node.properties.data(), k, &node.bits);
      profit_.BitsetTotals(node.bits, &facts, &fresh);
    }
  } else {
    node.entities =
        table_.MatchEntities(node.properties.data(), node.properties.size());
    profit_.EntityTotals(node.entities, &facts, &fresh);
  }
  node.total_facts = facts;
  node.total_new = fresh;
  node.profit = profit_.SliceProfitFromTotals(facts, fresh);
}

void SliceHierarchy::LinkEdge(uint32_t parent, uint32_t child) {
  auto& children = nodes_[parent].children;
  if (std::find(children.begin(), children.end(), child) != children.end()) {
    return;
  }
  children.push_back(child);
  nodes_[child].parents.push_back(parent);
}

bool SliceHierarchy::ReachableViaOther(uint32_t parent, uint32_t child,
                                       uint32_t via) const {
  const auto& child_props = nodes_[child].properties;
  for (uint32_t y : nodes_[parent].children) {
    if (y == child || y == via || nodes_[y].removed) continue;
    if (IsStrictSubset(nodes_[y].properties, child_props)) return true;
  }
  return false;
}

void SliceHierarchy::RemoveNonCanonical(uint32_t index) {
  SliceNode& node = nodes_[index];
  node.removed = true;
  node.valid = false;

  // Detach from parents and children first so reachability checks see the
  // post-removal edge set. Inline copies — no allocation for typical
  // degrees.
  const auto parents = node.parents;
  const auto children = node.children;
  for (uint32_t p : parents) EraseValue(&nodes_[p].children, index);
  for (uint32_t c : children) EraseValue(&nodes_[c].parents, index);
  node.parents.clear();
  node.children.clear();

  // Re-link each child to each parent unless already reachable through
  // another node (paper §III-A1 step 2).
  for (uint32_t p : parents) {
    if (nodes_[p].removed) continue;
    for (uint32_t c : children) {
      if (nodes_[c].removed) continue;
      if (!ReachableViaOther(p, c, index)) LinkEdge(p, c);
    }
  }
}

void SliceHierarchy::ComputeLowerBound(uint32_t index, LbScratch* scratch) {
  SliceNode& node = nodes_[index];

  // Union the S_LB sets of children with positive bounds (epoch-marked
  // dedup — no per-call allocation once `seen` has grown to the node
  // count).
  std::vector<uint32_t>& collect = scratch->collect;
  collect.clear();
  if (scratch->seen.size() < nodes_.size()) {
    scratch->seen.resize(nodes_.size(), 0);
  }
  const uint64_t epoch = ++scratch->epoch;
  for (uint32_t c : node.children) {
    const SliceNode& child = nodes_[c];
    if (child.removed || child.lb_profit <= 0) continue;
    for (uint32_t s : child.lb_set) {
      if (scratch->seen[s] != epoch) {
        scratch->seen[s] = epoch;
        collect.push_back(s);
      }
    }
  }

  double union_profit = 0.0;
  if (!collect.empty()) {
    if (table_.dense()) {
      // OR the children's word blocks, then one totals sweep — half the
      // word passes of incremental accumulation, identical integral sums.
      EntityBitset& u = scratch->union_bits;
      u.Reset(table_.num_entities());
      for (uint32_t s : collect) u.OrWith(nodes_[s].bits);
      uint64_t f = 0, n = 0;
      profit_.BitsetTotals(u, &f, &n);
      union_profit = profit_.SetProfitFromTotals(collect.size(), f, n);
    } else {
      ProfitContext::SetAccumulator& acc = scratch->acc;
      acc.Reset();
      for (uint32_t s : collect) acc.Add(nodes_[s].entities);
      union_profit = acc.Profit();
    }
  }

  node.valid = node.profit >= 0.0 && node.profit >= union_profit;
  if (node.profit >= union_profit && node.profit > 0.0) {
    node.lb_profit = node.profit;
    node.lb_set.assign(1, index);
  } else if (union_profit > 0.0) {
    node.lb_profit = union_profit;
    node.lb_set.assign(collect.begin(), collect.end());
  } else {
    node.lb_profit = 0.0;
    node.lb_set.clear();
  }
}

const std::vector<uint32_t>& SliceHierarchy::nodes_at_level(
    size_t level) const {
  static const std::vector<uint32_t> kEmpty;
  if (level >= by_level_.size()) return kEmpty;
  return by_level_[level];
}

}  // namespace core
}  // namespace midas
