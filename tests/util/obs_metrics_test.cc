// Unit tests of the midas::obs metrics layer: counters, gauges,
// log2-bucketed histograms with quantiles, the global registry, and the
// JSON/table exporters. These drive the classes directly (not the
// MIDAS_OBS_* macros), so they hold in instrumented and noop builds alike.

#include "midas/obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "midas/obs/export.h"
#include "midas/obs/trace.h"

namespace midas {
namespace obs {
namespace {

TEST(CounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.Set(5);
  EXPECT_EQ(g.Value(), 5);
  g.Add(-7);
  EXPECT_EQ(g.Value(), -2);
  g.SetMax(10);
  EXPECT_EQ(g.Value(), 10);
  g.SetMax(3);  // lower: no effect
  EXPECT_EQ(g.Value(), 10);
}

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::BucketLower(0), 0u);
  EXPECT_EQ(Histogram::BucketLower(1), 1u);
  EXPECT_EQ(Histogram::BucketLower(4), 8u);
}

TEST(HistogramTest, SnapshotAggregates) {
  Histogram h;
  for (uint64_t v : {0u, 1u, 2u, 3u, 100u, 1000u}) h.Record(v);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 1106u);
  EXPECT_EQ(snap.min, 0u);
  // min/max are reconstructed at bucket resolution: 1000 lands in
  // [512, 1023], so the reported max is that bucket's upper bound.
  EXPECT_EQ(snap.max, 1023u);
  EXPECT_EQ(snap.buckets[0], 1u);  // {0}
  EXPECT_EQ(snap.buckets[1], 1u);  // {1}
  EXPECT_EQ(snap.buckets[2], 2u);  // {2,3}
  EXPECT_DOUBLE_EQ(snap.Mean(), 1106.0 / 6.0);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram h;
  for (uint64_t i = 0; i < 1000; ++i) h.Record(i);
  auto snap = h.Snapshot();
  double p50 = snap.Quantile(0.50);
  double p95 = snap.Quantile(0.95);
  double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(snap.max));
  // Log2 interpolation is at worst 2x off within a bucket.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 100 + (i % 7));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(h.Snapshot().count, kThreads * kPerThread);
}

TEST(RegistryTest, GetInternsAndFindLooksUp) {
  Registry& reg = Registry::Global();
  Counter* c = reg.GetCounter("test.registry.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.GetCounter("test.registry.counter"), c);  // same instance
  EXPECT_EQ(reg.FindCounter("test.registry.counter"), c);
  EXPECT_EQ(reg.FindCounter("test.registry.never_registered"), nullptr);

  c->Add(3);
  uint64_t seen = 0;
  reg.VisitCounters([&](const std::string& name, uint64_t value) {
    if (name == "test.registry.counter") seen = value;
  });
  EXPECT_EQ(seen, 3u);

  reg.ResetAllForTest();
  EXPECT_EQ(c->Value(), 0u);  // reset in place, pointer still valid
}

TEST(ExportTest, JsonDocumentShape) {
  Registry& reg = Registry::Global();
  reg.ResetAllForTest();
  Tracer::Global().Reset();
  reg.GetCounter("test.export.counter")->Add(7);
  reg.GetGauge("test.export.gauge")->Set(-4);
  Histogram* h = reg.GetHistogram("test.export.hist_us");
  for (uint64_t i = 1; i <= 100; ++i) h->Record(i);

  JsonValue doc = MetricsToJson();
  const std::string dump = doc.Dump(0);
  // google-benchmark-shaped rows for every histogram plus the raw sections.
  EXPECT_NE(dump.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(dump.find("\"test.export.hist_us\""), std::string::npos);
  EXPECT_NE(dump.find("\"p95\""), std::string::npos);
  EXPECT_NE(dump.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(dump.find("\"test.export.gauge\""), std::string::npos);
  EXPECT_NE(dump.find("\"spans_dropped\""), std::string::npos);

  const std::string summary = MetricsSummary();
  EXPECT_NE(summary.find("test.export.counter"), std::string::npos);
  EXPECT_NE(summary.find("test.export.hist_us"), std::string::npos);
}

TEST(TracerTest, ScopedSpanClosesOnceIncludingOnThrow) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  const int64_t open_before = tracer.open_spans();
  {
    ScopedSpan outer(nullptr, "test.span.outer", "detail");
    ScopedSpan inner(nullptr, "test.span.inner");
    EXPECT_EQ(tracer.open_spans(), open_before + 2);
  }
  try {
    ScopedSpan span(nullptr, "test.span.throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(tracer.open_spans(), open_before);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Close order: inner before outer; nesting depth recorded.
  EXPECT_EQ(spans[0].name, "test.span.inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "test.span.outer");
  EXPECT_EQ(spans[1].detail, "detail");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[2].name, "test.span.throwing");
}

TEST(TracerTest, CapacityBoundsBufferAndCountsDrops) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  tracer.SetCapacity(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(nullptr, "test.span.capped");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Reset();
}

TEST(TracerTest, ConcurrentSpansFillTheRingAndCountEveryDrop) {
  Tracer& tracer = Tracer::Global();
  tracer.Reset();
  constexpr size_t kCapacity = 64;
  constexpr size_t kThreads = 4;
  constexpr size_t kSpansPerThread = 500;
  tracer.SetCapacity(kCapacity);
  Histogram latency;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&latency] {
      for (size_t i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(&latency, "test.span.concurrent");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.size(), kCapacity);
  EXPECT_EQ(tracer.dropped(), kThreads * kSpansPerThread - kCapacity);
  // Dropped spans still feed the latency histogram.
  EXPECT_EQ(latency.Count(), kThreads * kSpansPerThread);
  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Reset();
}

}  // namespace
}  // namespace obs
}  // namespace midas
