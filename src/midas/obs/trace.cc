#include "midas/obs/trace.h"

namespace midas {
namespace obs {

namespace {

thread_local uint32_t tls_span_depth = 0;

}  // namespace

Tracer& Tracer::Global() {
  // Leaked like the Registry: spans may be recorded from objects destroyed
  // after main() begins tearing down statics.
  static Tracer* global = new Tracer();
  return *global;
}

void Tracer::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    Drop();
    return;
  }
  if (spans_.capacity() == 0) spans_.reserve(capacity_);
  spans_.push_back(std::move(span));
  if (spans_.size() >= capacity_) full_.store(true, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  full_.store(spans_.size() >= capacity_, std::memory_order_relaxed);
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  full_.store(capacity_ == 0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(Histogram* latency, const char* name,
                       std::string detail)
    : latency_(latency),
      name_(name),
      detail_(std::move(detail)),
      start_ns_(NowNanos()),
      depth_(tls_span_depth++) {
  Tracer::Global().open_.fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan::~ScopedSpan() {
  --tls_span_depth;
  const uint64_t duration = NowNanos() - start_ns_;
  Tracer& tracer = Tracer::Global();
  tracer.open_.fetch_sub(1, std::memory_order_relaxed);

  // A full ring would drop the record: skip the lock and building the
  // record (the name copy allocates past the small-string limit).
  if (tracer.full_.load(std::memory_order_relaxed)) {
    tracer.Drop();
  } else {
    SpanRecord span;
    span.name = name_;
    span.detail = std::move(detail_);
    span.start_ns = start_ns_;
    span.duration_ns = duration;
    span.depth = depth_;
    span.thread = static_cast<uint32_t>(internal::ShardIndex());
    tracer.Record(std::move(span));
  }

  // Aggregate per-category latency, usable even when the span buffer
  // saturates.
  if (latency_ != nullptr) latency_->Record(duration / 1000);
}

}  // namespace obs
}  // namespace midas
