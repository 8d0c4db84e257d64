#include "midas/util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "midas/obs/obs.h"

namespace midas {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  tasks_submitted_ = MIDAS_OBS_COUNTER("threadpool.tasks_submitted");
  tasks_completed_ = MIDAS_OBS_COUNTER("threadpool.tasks_completed");
  busy_ns_ = MIDAS_OBS_COUNTER("threadpool.busy_ns");
  queue_depth_ = MIDAS_OBS_GAUGE("threadpool.queue_depth");
  queue_depth_max_ = MIDAS_OBS_GAUGE("threadpool.queue_depth_max");
  threads_ = MIDAS_OBS_GAUGE("threadpool.threads");
  task_wait_us_ = MIDAS_OBS_HISTOGRAM("threadpool.task_wait_us");
  task_run_us_ = MIDAS_OBS_HISTOGRAM("threadpool.task_run_us");
  MIDAS_OBS_GAUGE_ADD(threads_, static_cast<int64_t>(num_threads));

  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
  MIDAS_OBS_GAUGE_ADD(threads_, -static_cast<int64_t>(workers_.size()));
}

void ThreadPool::Submit(std::function<void()> task) {
  int64_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(QueuedTask{std::move(task), MIDAS_OBS_NOW_NS()});
    ++in_flight_;
    depth = static_cast<int64_t>(queue_.size());
  }
  (void)depth;  // unused in a MIDAS_OBS_NOOP build
  MIDAS_OBS_ADD(tasks_submitted_, 1);
  MIDAS_OBS_GAUGE_SET(queue_depth_, depth);
  MIDAS_OBS_GAUGE_MAX(queue_depth_max_, depth);
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

size_t ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                               const std::function<bool()>& cancelled) {
  if (n == 0) return 0;
  size_t chunk = std::max<size_t>(1, n / (num_threads() * 4));
  std::atomic<size_t> next{0};
  std::atomic<size_t> ran{0};
  size_t num_tasks = std::min(num_threads(), (n + chunk - 1) / chunk);
  for (size_t t = 0; t < num_tasks; ++t) {
    Submit([&next, &ran, n, chunk, &fn, &cancelled] {
      while (true) {
        if (cancelled && cancelled()) break;
        size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) break;
        size_t end = std::min(n, begin + chunk);
        for (size_t i = begin; i < end; ++i) fn(i);
        ran.fetch_add(end - begin, std::memory_order_relaxed);
      }
    });
  }
  Wait();
  return ran.load(std::memory_order_relaxed);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      MIDAS_OBS_GAUGE_SET(queue_depth_, static_cast<int64_t>(queue_.size()));
    }
    const uint64_t start_ns = MIDAS_OBS_NOW_NS();
    (void)start_ns;  // unused in a MIDAS_OBS_NOOP build
    MIDAS_OBS_RECORD(task_wait_us_, (start_ns - task.enqueue_ns) / 1000);
    task.fn();
    const uint64_t run_ns = MIDAS_OBS_NOW_NS() - start_ns;
    (void)run_ns;
    MIDAS_OBS_RECORD(task_run_us_, run_ns / 1000);
    MIDAS_OBS_ADD(busy_ns_, run_ns);
    MIDAS_OBS_ADD(tasks_completed_, 1);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace midas
