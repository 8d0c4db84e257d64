#ifndef MIDAS_UTIL_THREAD_POOL_H_
#define MIDAS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "midas/obs/metrics.h"

namespace midas {

/// Fixed-size worker pool. Stands in for the paper's MapReduce runtime: the
/// MIDAS framework shards work by parent URL and submits one task per shard.
///
/// Usage:
///   ThreadPool pool(8);
///   for (auto& shard : shards) pool.Submit([&] { Process(shard); });
///   pool.Wait();  // barrier between framework rounds
///
/// Observability: every pool feeds the shared midas::obs metrics
///   threadpool.tasks_submitted / .tasks_completed   (counters)
///   threadpool.busy_ns                              (counter; utilization =
///                                                    busy_ns / (threads ×
///                                                    wall time))
///   threadpool.queue_depth / .queue_depth_max       (gauges)
///   threadpool.threads                              (gauge, live workers)
///   threadpool.task_wait_us / .task_run_us          (histograms)
/// Recording is lock-free relaxed atomics; a -DMIDAS_OBS_NOOP build
/// compiles all of it out.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1; 0 is clamped to
  /// hardware_concurrency).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. May be called multiple
  /// times (acts as a reusable barrier).
  void Wait();

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Work is chunked to limit queue overhead. Once `cancelled()` first
  /// returns true, chunks not yet claimed are skipped (indices already
  /// running finish normally — the cancellation is cooperative, matching
  /// fault::CancelToken semantics). The predicate is polled once per chunk
  /// claim, never per index; a null predicate never cancels. Returns the
  /// number of indices that actually ran; == n when never cancelled.
  size_t ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                     const std::function<bool()>& cancelled);

  size_t num_threads() const { return workers_.size(); }

 private:
  /// A queued task plus its enqueue stamp (for the wait-time histogram).
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;

  /// Shared-registry metrics, resolved once at construction (null in a
  /// noop build).
  obs::Counter* tasks_submitted_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
  obs::Counter* busy_ns_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_depth_max_ = nullptr;
  obs::Gauge* threads_ = nullptr;
  obs::Histogram* task_wait_us_ = nullptr;
  obs::Histogram* task_run_us_ = nullptr;
};

}  // namespace midas

#endif  // MIDAS_UTIL_THREAD_POOL_H_
