// Microbenchmarks (google-benchmark) for the midas::obs layer, pinning the
// "low-overhead" claim the instrumentation rides on: sharded counter adds
// (uncontended and contended), histogram records, registry lookups, scoped
// spans, and a snapshot over a populated histogram.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <string>

#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

namespace midas {
namespace {

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter counter;
  for (auto _ : state) {
    counter.Add();
  }
  if (state.thread_index() == 0) counter.Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);
// Contended: all threads hammer the one (sharded) counter.
BENCHMARK(BM_ObsCounterAdd)->Threads(4)->UseRealTime();

void BM_ObsGaugeSet(benchmark::State& state) {
  static obs::Gauge gauge;
  int64_t v = 0;
  for (auto _ : state) {
    gauge.Set(++v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsGaugeSet);

void BM_ObsHistogramRecord(benchmark::State& state) {
  static obs::Histogram hist;
  uint64_t v = 0;
  for (auto _ : state) {
    hist.Record(++v & 0xFFFF);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);
BENCHMARK(BM_ObsHistogramRecord)->Threads(4)->UseRealTime();

void BM_ObsRegistryFind(benchmark::State& state) {
  obs::Registry::Global().GetCounter("bench.obs.lookup");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::Registry::Global().FindCounter("bench.obs.lookup"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryFind);

void BM_ObsScopedSpan(benchmark::State& state) {
  obs::Tracer::Global().Reset();
  // Resolved once, as MIDAS_OBS_SPAN does per call site.
  obs::Histogram* latency =
      obs::Registry::Global().GetHistogram("span.bench.obs.span");
  for (auto _ : state) {
    obs::ScopedSpan span(latency, "bench.obs.span");
    benchmark::ClobberMemory();
  }
  obs::Tracer::Global().Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan);

void BM_ObsHistogramSnapshot(benchmark::State& state) {
  obs::Histogram hist;
  for (uint64_t i = 0; i < 100000; ++i) hist.Record(i & 0xFFFFF);
  for (auto _ : state) {
    auto snap = hist.Snapshot();
    benchmark::DoNotOptimize(snap.Quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramSnapshot);

}  // namespace
}  // namespace midas

MIDAS_BENCHMARK_MAIN_WITH_JSON_ARTIFACT()
