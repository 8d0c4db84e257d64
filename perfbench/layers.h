#ifndef MIDAS_PERFBENCH_LAYERS_H_
#define MIDAS_PERFBENCH_LAYERS_H_

// The traced half of midas_bench: spans recorded from bench code only, and
// a per-layer profile of one in-process discovery taken by timing calls
// into each layer's public functions (extract, rdf, core framework /
// executor / detector, and a replay of sampled shards through fact_table,
// profit, hierarchy and traverse). Nothing here runs in an untraced run,
// so end-to-end numbers never carry its cost.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "midas/core/framework.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// One timed interval, written as a Chrome trace-event "X" event.
struct Span {
  const char* name = "";
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Round index, cycle id or -1.
  int64_t tag = -1;
};

/// Fixed-capacity span store. Memory is reserved at construction and
/// Record is a lock-free slot claim, so recording does not allocate or
/// serialize the threads it measures; spans past capacity are counted as
/// dropped. The log is written once, at exit.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);

  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t tag = -1);
  size_t dropped() const;

  /// Writes {"traceEvents": [...]} for chrome://tracing or Perfetto.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
};

/// The KB `midas discover` builds: empty without `kb_path`, else the TSV
/// facts loaded into the corpus dictionary.
Status LoadKb(const std::string& kb_path, web::Corpus* corpus,
              std::unique_ptr<rdf::KnowledgeBase>* kb);

/// The run `midas discover` makes: MidasAlg with its default options on
/// the built-in executor. `memo` may be null.
core::FrameworkResult RunDiscovery(const web::Corpus& corpus,
                                   const rdf::KnowledgeBase& kb,
                                   size_t threads, core::DetectionMemo* memo);

/// What one workload's in-process discovery runs on.
struct LayerInputs {
  std::string dump_path;
  /// Empty: empty KB, as in `midas discover` without --kb.
  std::string kb_path;
  double threshold = 0.7;
  size_t threads = 1;
  /// Serve workloads: the daemon's cold /discover fills a DetectionMemo,
  /// so the profiled run does too.
  bool use_memo = false;
};

/// The traced T-thread run's output, kept as the reference slice list.
struct LayerResult {
  web::Corpus corpus;
  core::FrameworkResult result;
  size_t kb_facts = 0;
  /// Shards the phase replay covered (the base of the replay metrics).
  size_t replay_shards = 0;
};

/// Profiles one in-process discovery layer by layer and appends the
/// per-layer metrics (extract.*, rdf.*, framework.*, executor.*, detect.*,
/// fact_table.*, profit.*, hierarchy.*, traverse.*, replay.*, trace.*).
Status ProfileLayers(const LayerInputs& inputs, SpanLog* log,
                     std::vector<Metric>* metrics, LayerResult* out);

}  // namespace perfbench
}  // namespace midas

#endif  // MIDAS_PERFBENCH_LAYERS_H_
