// Pins the hot-path contract of the MIDAS_OBS_* macros: once a call site
// has run, recording through it does no heap allocation (and so builds no
// metric name and takes no registry lock). Covers a counter add, a span
// whose name is longer than the small-string buffer, and the per-level
// hierarchy counters SliceHierarchy flushes, all with the tracer ring full
// as it is for most of a long run. Allocations are counted by instrumenting
// this binary's global operator new, like profit_alloc_test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "midas/core/slice_hierarchy.h"
#include "midas/obs/obs.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace midas {
namespace obs {
namespace {

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationGuard() { g_counting.store(false, std::memory_order_relaxed); }

  size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

/// One pass over every recording site under test. Levels run past the
/// 16-level cap so the shared "16plus" bucket is covered too.
void RecordOnce() {
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("test.obs_alloc.counter"), 1);
  MIDAS_OBS_SPAN(span, "test.obs_alloc.long_span_name");
  for (size_t level = 1; level <= 20; ++level) {
    MIDAS_OBS_ADD(
        core::HierarchyLevelCounter(level, core::HierarchyLevelMetric::kNodes),
        1);
    MIDAS_OBS_ADD(core::HierarchyLevelCounter(
                      level, core::HierarchyLevelMetric::kDedupHits),
                  1);
    MIDAS_OBS_ADD(
        core::HierarchyLevelCounter(level, core::HierarchyLevelMetric::kEvalUs),
        1);
  }
}

class ObsAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef MIDAS_OBS_NOOP
    GTEST_SKIP() << "instrumentation compiled out";
#endif
    Registry::Global().ResetAllForTest();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Tracer::Global().SetCapacity(Tracer::kDefaultCapacity);
    Tracer::Global().Reset();
  }
};

TEST_F(ObsAllocTest, RecordingIsAllocationFreeOnceWarmWithRingFull) {
  Tracer& tracer = Tracer::Global();
  constexpr size_t kCapacity = 2;
  tracer.SetCapacity(kCapacity);
  // Warm-up: resolves every site and fills the ring.
  for (size_t i = 0; i < kCapacity; ++i) RecordOnce();
  ASSERT_EQ(tracer.size(), kCapacity);
  ASSERT_EQ(tracer.dropped(), 0u);

  constexpr size_t kRounds = 1000;
  size_t allocations = 0;
  {
    AllocationGuard guard;
    for (size_t i = 0; i < kRounds; ++i) RecordOnce();
    allocations = guard.count();
  }
  EXPECT_EQ(allocations, 0u);

  // Every span past capacity was counted as dropped, and every one still
  // fed its latency histogram; the ring kept the first spans.
  EXPECT_EQ(tracer.size(), kCapacity);
  EXPECT_EQ(tracer.dropped(), kRounds);
  const Registry& registry = Registry::Global();
  EXPECT_EQ(registry.FindCounter("test.obs_alloc.counter")->Value(),
            kCapacity + kRounds);
  EXPECT_EQ(
      registry.FindHistogram("span.test.obs_alloc.long_span_name")->Count(),
      kCapacity + kRounds);
  EXPECT_EQ(registry.FindCounter("hierarchy.level.3.dedup_hits")->Value(),
            kCapacity + kRounds);
  // Levels 17..20 share the capped bucket.
  EXPECT_EQ(registry.FindCounter("hierarchy.level.16plus.nodes")->Value(),
            4 * (kCapacity + kRounds));
}

TEST_F(ObsAllocTest, CallSitesResolveToTheNamedRegistryEntries) {
  Registry& registry = Registry::Global();
  EXPECT_EQ(MIDAS_OBS_COUNTER("test.obs_alloc.named"),
            registry.GetCounter("test.obs_alloc.named"));
  EXPECT_EQ(MIDAS_OBS_GAUGE("test.obs_alloc.named"),
            registry.GetGauge("test.obs_alloc.named"));
  EXPECT_EQ(MIDAS_OBS_HISTOGRAM("test.obs_alloc.named"),
            registry.GetHistogram("test.obs_alloc.named"));
  EXPECT_EQ(core::HierarchyLevelCounter(2, core::HierarchyLevelMetric::kNodes),
            registry.GetCounter("hierarchy.level.2.nodes"));
  EXPECT_EQ(
      core::HierarchyLevelCounter(40, core::HierarchyLevelMetric::kEvalUs),
      registry.GetCounter("hierarchy.level.16plus.eval_us"));
}

}  // namespace
}  // namespace obs
}  // namespace midas
