#ifndef MIDAS_OBS_OBS_H_
#define MIDAS_OBS_OBS_H_

/// midas::obs — umbrella header + the instrumentation macros every
/// pipeline call site uses.
///
/// Two switches control overhead:
///
///   - Runtime: recording is always lock-free relaxed atomics (see
///     metrics.h); registration happens once per call site: each
///     MIDAS_OBS_COUNTER/_GAUGE/_HISTOGRAM/_SPAN expansion caches its
///     metric pointer in a function-local static, so only the first pass
///     through a site takes the registry lock.
///   - Compile time: building with -DMIDAS_OBS_NOOP (CMake option
///     MIDAS_OBS_NOOP) expands every macro below to nothing — zero
///     instructions, zero words allocated, no obs symbols referenced from
///     the call sites (pinned by tests/util/obs_noop_test.cc).
///
/// The obs class definitions themselves are compiled unconditionally (the
/// registry, exporter, and tests keep working in a noop build — they just
/// observe empty metrics), so class layouts never vary with the switch and
/// mixed-TU builds stay ODR-clean. Only the macros change meaning.
///
/// Metric and span names must be string literals (a run-time name does not
/// compile); a site that needs a computed name resolves it through
/// Registry::Global() once and caches the pointer itself.
///
/// Usage:
///   // Hot path (the lookup runs on the first pass only):
///   MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("profit.set_profit_calls"), 1);
///   // Scoped timing + span:
///   MIDAS_OBS_SPAN(span, "framework.source", shard.url);

#include "midas/obs/export.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

#ifndef MIDAS_OBS_NOOP

/// Registration: resolves `name` (a string literal — the "" prefix
/// rejects anything else) on the first pass through the call site and
/// yields the cached pointer afterwards, with no lock and no allocation.
#define MIDAS_OBS_INTERNAL_RESOLVE(type, getter, name)                   \
  ([]() -> ::midas::obs::type* {                                         \
    static ::midas::obs::type* const metric =                            \
        ::midas::obs::Registry::Global().getter("" name);                \
    return metric;                                                       \
  }())
#define MIDAS_OBS_COUNTER(name) \
  MIDAS_OBS_INTERNAL_RESOLVE(Counter, GetCounter, name)
#define MIDAS_OBS_GAUGE(name) MIDAS_OBS_INTERNAL_RESOLVE(Gauge, GetGauge, name)
#define MIDAS_OBS_HISTOGRAM(name) \
  MIDAS_OBS_INTERNAL_RESOLVE(Histogram, GetHistogram, name)

/// Recording (lock-free, allocation-free; pointers may be null in noop
/// translation units, so every macro is null-safe).
#define MIDAS_OBS_ADD(counter, n)                        \
  do {                                                   \
    if ((counter) != nullptr) (counter)->Add(n);         \
  } while (0)
#define MIDAS_OBS_GAUGE_SET(gauge, v)                    \
  do {                                                   \
    if ((gauge) != nullptr) (gauge)->Set(v);             \
  } while (0)
#define MIDAS_OBS_GAUGE_ADD(gauge, d)                    \
  do {                                                   \
    if ((gauge) != nullptr) (gauge)->Add(d);             \
  } while (0)
#define MIDAS_OBS_GAUGE_MAX(gauge, v)                    \
  do {                                                   \
    if ((gauge) != nullptr) (gauge)->SetMax(v);          \
  } while (0)
#define MIDAS_OBS_RECORD(histogram, v)                   \
  do {                                                   \
    if ((histogram) != nullptr) (histogram)->Record(v);  \
  } while (0)

/// Monotonic nanosecond stamp (0 under noop so deltas stay well-defined).
#define MIDAS_OBS_NOW_NS() (::midas::obs::NowNanos())

/// Scoped tracing span: closes exactly once when `var` leaves scope,
/// including via exception unwinding. `...` is an optional detail string.
/// The site's "span.<name>" latency histogram is resolved once, like the
/// registration macros above.
#define MIDAS_OBS_SPAN(var, name, ...)                                 \
  ::midas::obs::ScopedSpan var(MIDAS_OBS_HISTOGRAM("span." name), name \
                               __VA_OPT__(, ) __VA_ARGS__)

#else  // MIDAS_OBS_NOOP

#define MIDAS_OBS_COUNTER(name) (static_cast<::midas::obs::Counter*>(nullptr))
#define MIDAS_OBS_GAUGE(name) (static_cast<::midas::obs::Gauge*>(nullptr))
#define MIDAS_OBS_HISTOGRAM(name) \
  (static_cast<::midas::obs::Histogram*>(nullptr))

#define MIDAS_OBS_ADD(counter, n) \
  do {                            \
  } while (0)
#define MIDAS_OBS_GAUGE_SET(gauge, v) \
  do {                                \
  } while (0)
#define MIDAS_OBS_GAUGE_ADD(gauge, d) \
  do {                                \
  } while (0)
#define MIDAS_OBS_GAUGE_MAX(gauge, v) \
  do {                                \
  } while (0)
#define MIDAS_OBS_RECORD(histogram, v) \
  do {                                 \
  } while (0)

#define MIDAS_OBS_NOW_NS() (uint64_t{0})

#define MIDAS_OBS_SPAN(var, name, ...) \
  do {                                 \
  } while (0)

#endif  // MIDAS_OBS_NOOP

#endif  // MIDAS_OBS_OBS_H_
