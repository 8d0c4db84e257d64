// Pins the cancellable ParallelFor contract: a null predicate and a
// never-true predicate run everything, a pre-set
// predicate runs nothing, and a predicate that flips mid-run stops further
// chunk claims while letting already-claimed indices finish (the return
// value counts exactly the indices that ran).

#include "midas/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace midas {
namespace {

TEST(ThreadPoolCancelTest, NullPredicateRunsEverything) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  size_t ran = pool.ParallelFor(
      1000, [&](size_t) { executed.fetch_add(1); }, nullptr);
  EXPECT_EQ(ran, 1000u);
  EXPECT_EQ(executed.load(), 1000u);
}

TEST(ThreadPoolCancelTest, NeverTruePredicateMatchesPlainOverload) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  size_t ran = pool.ParallelFor(
      hits.size(), [&](size_t i) { hits[i].fetch_add(1); },
      [] { return false; });
  EXPECT_EQ(ran, hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolCancelTest, PreCancelledRunsNothing) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  size_t ran = pool.ParallelFor(
      1000, [&](size_t) { executed.fetch_add(1); }, [] { return true; });
  EXPECT_EQ(ran, 0u);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ThreadPoolCancelTest, MidRunCancelSkipsUnclaimedChunks) {
  // One worker makes the chunk walk serial: chunk = max(1, 400/4) = 100,
  // the predicate flips after the first chunk completes, so exactly one
  // chunk runs and three are skipped.
  ThreadPool pool(1);
  std::atomic<size_t> executed{0};
  size_t ran = pool.ParallelFor(
      400, [&](size_t) { executed.fetch_add(1); },
      [&] { return executed.load() >= 100; });
  EXPECT_EQ(ran, 100u);
  EXPECT_EQ(executed.load(), 100u);
}

TEST(ThreadPoolCancelTest, ReturnCountMatchesExecutedUnderContention) {
  // Multi-threaded flavor: the exact count depends on the schedule, but the
  // return value must equal the number of fn() invocations, and cancelling
  // early must skip at least the tail chunks.
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  size_t ran = pool.ParallelFor(
      100000, [&](size_t) { executed.fetch_add(1); },
      [&] { return executed.load() >= 1; });
  EXPECT_EQ(ran, executed.load());
  EXPECT_LT(ran, 100000u);
}

TEST(ThreadPoolCancelTest, ZeroIterationsReturnsZero) {
  ThreadPool pool(2);
  size_t ran = pool.ParallelFor(0, [](size_t) {}, [] { return false; });
  EXPECT_EQ(ran, 0u);
}

}  // namespace
}  // namespace midas
