#ifndef MIDAS_OBS_TRACE_H_
#define MIDAS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "midas/obs/metrics.h"

namespace midas {
namespace obs {

/// One completed tracing span. `name` is a static-ish category
/// ("framework.source"); `detail` carries the per-instance payload (the
/// source URL, the method name).
struct SpanRecord {
  std::string name;
  std::string detail;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  /// Nesting depth within the recording thread (0 = top-level).
  uint32_t depth = 0;
  /// Shard index of the recording thread (stable per thread).
  uint32_t thread = 0;
};

/// Bounded process-wide span sink. Spans are appended on close (under a
/// mutex — spans are per-source / per-round, never per-node); once
/// `capacity` spans are buffered further spans are counted as dropped
/// instead of growing the buffer, so tracing can stay always-on in
/// production runs. A closing span finds a full ring without taking the
/// lock.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 8192;

  static Tracer& Global();

  /// Appends a completed span (drops + counts past capacity).
  void Record(SpanRecord span);

  /// Copies out all buffered spans, in close order.
  std::vector<SpanRecord> Snapshot() const;

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Spans currently open (ScopedSpan constructed, not yet destroyed).
  /// Returns to 0 whenever all scopes have unwound — the "every span closed
  /// exactly once" invariant tests assert.
  int64_t open_spans() const {
    return open_.load(std::memory_order_relaxed);
  }

  void SetCapacity(size_t capacity);

  /// Clears buffered spans and the dropped counter (open-span count is
  /// owned by live ScopedSpans and survives a reset).
  void Reset();

 private:
  friend class ScopedSpan;

  /// Counts one span the full ring could not take.
  void Drop() { dropped_.fetch_add(1, std::memory_order_relaxed); }

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  size_t capacity_ = kDefaultCapacity;
  /// spans_.size() >= capacity_, readable without mu_ (written under it).
  std::atomic<bool> full_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<int64_t> open_{0};
};

/// RAII span: opens at construction, records at destruction — exactly once,
/// on every exit path including exception unwinding. Also feeds the span's
/// duration (microseconds) into a latency histogram — "span.<name>" under
/// MIDAS_OBS_SPAN — so aggregate per-category latency is available without
/// walking the span buffer. `name` must outlive the span (a literal, in
/// practice).
class ScopedSpan {
 public:
  /// Records the duration into `latency` (null = none). MIDAS_OBS_SPAN
  /// passes the call site's cached "span.<name>" histogram.
  ScopedSpan(Histogram* latency, const char* name, std::string detail = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* latency_;
  const char* name_;
  std::string detail_;
  uint64_t start_ns_;
  uint32_t depth_;
};

}  // namespace obs
}  // namespace midas

#endif  // MIDAS_OBS_TRACE_H_
