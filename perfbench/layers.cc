#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "midas/core/fact_table.h"
#include "midas/core/midas_alg.h"
#include "midas/core/profit.h"
#include "midas/core/slice_hierarchy.h"
#include "midas/extract/columnar_io.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/rdf/ntriples.h"
#include "midas/util/hash.h"
#include "process.h"

namespace midas {
namespace perfbench {

namespace {

/// Seedless shards whose URL hash is a multiple of this are replayed phase
/// by phase (about one in fifty, the same ones on every run of a seed).
constexpr uint64_t kReplayStride = 50;
/// Loads and T-thread runs are repeated; medians are reported.
constexpr int kReps = 9;

uint32_t SpanThread() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

/// Threads of this process, counted from /proc/self/task.
size_t ProcessThreads() {
  std::error_code ec;
  size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

double Seconds(double ns) { return ns / 1e9; }
double Micros(double ns) { return ns / 1e3; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct ReplayShard {
  std::string url;
  std::vector<rdf::Triple> facts;
};

/// Times every Detect call of the wrapped detector (bench.detect spans)
/// and, when sampling, copies the inputs of the replayed seedless shards.
class TimedDetector : public core::SliceDetector {
 public:
  TimedDetector(const core::SliceDetector* inner, SpanLog* log,
                size_t capacity, bool sample)
      : inner_(inner), log_(log), durations_ns_(capacity), sample_(sample) {}

  std::string name() const override { return inner_->name(); }

  std::vector<core::DiscoveredSlice> Detect(
      const core::SourceInput& input,
      const rdf::KnowledgeBase& kb) const override {
    const uint64_t start = NowNs();
    std::vector<core::DiscoveredSlice> out = inner_->Detect(input, kb);
    const uint64_t end = NowNs();
    log_->Record("bench.detect", start, end);
    const size_t slot = calls_.fetch_add(1, std::memory_order_relaxed);
    if (slot < durations_ns_.size()) durations_ns_[slot] = end - start;
    busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    facts_.fetch_add(input.facts->size(), std::memory_order_relaxed);
    if (sample_ && input.seeds.empty() &&
        Fnv1a64(input.url) % kReplayStride == 0) {
      std::lock_guard<std::mutex> lock(sample_mu_);
      samples_.push_back(ReplayShard{input.url, *input.facts});
    }
    return out;
  }

  size_t calls() const { return calls_.load(); }
  uint64_t busy_ns() const { return busy_ns_.load(); }
  uint64_t facts() const { return facts_.load(); }
  std::vector<double> durations_us() const {
    std::vector<double> out;
    const size_t n = std::min(calls(), durations_ns_.size());
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(Micros(static_cast<double>(durations_ns_[i])));
    }
    return out;
  }
  std::vector<ReplayShard> TakeSamples() { return std::move(samples_); }

 private:
  const core::SliceDetector* inner_;
  SpanLog* log_;
  // Pre-sized: each call claims its own slot, so threads never share one.
  mutable std::vector<uint64_t> durations_ns_;
  mutable std::atomic<size_t> calls_{0};
  mutable std::atomic<uint64_t> busy_ns_{0};
  mutable std::atomic<uint64_t> facts_{0};
  const bool sample_;
  mutable std::mutex sample_mu_;
  mutable std::vector<ReplayShard> samples_;
};

/// The built-in in-process executor, with each round timed (bench.round
/// spans tagged with the round index).
class TimedExecutor : public core::ShardExecutor {
 public:
  explicit TimedExecutor(SpanLog* log) : log_(log) {}

  void ExecuteRound(const core::ShardExecutionContext& ctx,
                    std::vector<core::ShardTask>* tasks,
                    std::vector<core::ShardTaskResult>* results) override {
    const uint64_t start = NowNs();
    inner_.ExecuteRound(ctx, tasks, results);
    const uint64_t end = NowNs();
    busy_ns_ += end - start;
    log_->Record("bench.round", start, end, static_cast<int64_t>(rounds_++));
  }

  uint64_t busy_ns() const { return busy_ns_; }

 private:
  core::InProcessShardExecutor inner_;
  SpanLog* log_;
  uint64_t busy_ns_ = 0;
  size_t rounds_ = 0;
};

struct RunProfile {
  double wall_s = 0;
  double round_ns = 0;
  double detect_ns = 0;
  size_t calls = 0;
  uint64_t facts = 0;
  std::vector<double> detect_us;
  std::vector<ReplayShard> samples;
  core::FrameworkResult result;
};

RunProfile TracedRun(const web::Corpus& corpus, const rdf::KnowledgeBase& kb,
                     size_t threads, bool use_memo, bool sample,
                     SpanLog* log) {
  const core::MidasAlg alg;
  // A shard per source plus one per URL ancestor bounds the detect calls.
  TimedDetector detector(&alg, log, 4 * corpus.NumSources() + 1024, sample);
  TimedExecutor executor(log);
  core::DetectionMemo memo;
  core::FrameworkOptions options;
  options.num_threads = threads;
  options.executor = &executor;
  if (use_memo) options.memo = &memo;
  const core::MidasFramework framework(&detector, options);
  RunProfile profile;
  const uint64_t start = NowNs();
  profile.result = framework.Run(corpus, kb);
  const uint64_t end = NowNs();
  log->Record("bench.run", start, end, static_cast<int64_t>(threads));
  profile.wall_s = Seconds(static_cast<double>(end - start));
  profile.round_ns = static_cast<double>(executor.busy_ns());
  profile.detect_ns = static_cast<double>(detector.busy_ns());
  profile.calls = detector.calls();
  profile.facts = detector.facts();
  profile.detect_us = detector.durations_us();
  profile.samples = detector.TakeSamples();
  return profile;
}

double UntracedRun(const web::Corpus& corpus, const rdf::KnowledgeBase& kb,
                   size_t threads, bool use_memo) {
  core::DetectionMemo memo;
  const uint64_t start = NowNs();
  const core::FrameworkResult result =
      RunDiscovery(corpus, kb, threads, use_memo ? &memo : nullptr);
  return Seconds(static_cast<double>(NowNs() - start));
}

struct ReplayTotals {
  double fact_table_ns = 0;
  double profit_ns = 0;
  double hierarchy_ns = 0;
  double traverse_ns = 0;
  double detect_ns = 0;
  double nodes = 0;
  double pruned = 0;
  double selected = 0;
  /// Shards whose SliceHierarchy started its own thread pool.
  size_t pooled = 0;
  size_t shards = 0;
};

/// Re-runs MidasAlg::Detect's phases one at a time on each sampled shard,
/// then Detect itself on the same input, so the phase sum can be checked
/// against the whole (replay.coverage).
ReplayTotals Replay(const std::vector<ReplayShard>& shards,
                    const rdf::KnowledgeBase& kb, SpanLog* log) {
  const core::MidasOptions options;  // MidasAlg's defaults, as the CLI runs
  const core::MidasAlg alg(options);
  ReplayTotals totals;
  for (const ReplayShard& shard : shards) {
    // The replay runs alone on this thread, so any thread that appears
    // while the hierarchy lives belongs to the hierarchy's own pool (opened
    // for a batch of at least HierarchyOptions::parallel_min_batch nodes,
    // with hardware_concurrency threads, whatever the framework's count).
    const size_t threads_before = ProcessThreads();
    const uint64_t t0 = NowNs();
    const core::FactTable table(shard.facts, options.fact_table);
    const uint64_t t1 = NowNs();
    const core::ProfitContext profit(table, kb, options.cost_model);
    const uint64_t t2 = NowNs();
    std::vector<core::EntityId> all(table.num_entities());
    std::iota(all.begin(), all.end(), core::EntityId{0});
    core::SliceHierarchy hierarchy(
        table, profit,
        core::BuildEntityInitialSets(table, all, options.hierarchy),
        options.hierarchy);
    const uint64_t t3 = NowNs();
    const std::vector<uint32_t> selected = core::MidasAlg::Traverse(&hierarchy);
    std::vector<core::DiscoveredSlice> slices;
    slices.reserve(selected.size());
    for (uint32_t index : selected) {
      slices.push_back(core::MidasAlg::MakeSlice(hierarchy, index, shard.url));
    }
    const uint64_t t4 = NowNs();
    if (ProcessThreads() > threads_before) ++totals.pooled;
    core::SourceInput input;
    input.url = shard.url;
    input.facts = &shard.facts;
    const uint64_t t5 = NowNs();
    const std::vector<core::DiscoveredSlice> detected = alg.Detect(input, kb);
    const uint64_t t6 = NowNs();

    log->Record("replay.fact_table", t0, t1);
    log->Record("replay.profit", t1, t2);
    log->Record("replay.hierarchy", t2, t3);
    log->Record("replay.traverse", t3, t4);
    log->Record("replay.detect", t5, t6);
    totals.fact_table_ns += static_cast<double>(t1 - t0);
    totals.profit_ns += static_cast<double>(t2 - t1);
    totals.hierarchy_ns += static_cast<double>(t3 - t2);
    totals.traverse_ns += static_cast<double>(t4 - t3);
    totals.detect_ns += static_cast<double>(t6 - t5);
    const core::HierarchyStats& stats = hierarchy.stats();
    totals.nodes += static_cast<double>(stats.nodes_generated);
    totals.pruned += static_cast<double>(stats.noncanonical_removed +
                                         stats.low_profit_pruned);
    totals.selected += static_cast<double>(selected.size());
    ++totals.shards;
  }
  return totals;
}

}  // namespace

Status LoadKb(const std::string& kb_path, web::Corpus* corpus,
              std::unique_ptr<rdf::KnowledgeBase>* kb) {
  *kb = std::make_unique<rdf::KnowledgeBase>(corpus->shared_dict());
  if (kb_path.empty()) return Status::OK();
  std::vector<rdf::Triple> facts;
  MIDAS_RETURN_IF_ERROR(
      rdf::LoadTsvFacts(kb_path, corpus->mutable_dict(), &facts));
  (*kb)->AddAll(facts);
  return Status::OK();
}

core::FrameworkResult RunDiscovery(const web::Corpus& corpus,
                                   const rdf::KnowledgeBase& kb,
                                   size_t threads, core::DetectionMemo* memo) {
  const core::MidasAlg detector;
  core::FrameworkOptions options;
  options.num_threads = threads;
  options.memo = memo;
  return core::MidasFramework(&detector, options).Run(corpus, kb);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const auto hi = static_cast<size_t>(std::ceil(rank));
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

SpanLog::SpanLog(size_t capacity) : spans_(capacity) {}

void SpanLog::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                     int64_t tag) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) return;
  spans_[slot] = Span{name, SpanThread(), start_ns, end_ns, tag};
}

size_t SpanLog::dropped() const {
  const size_t n = next_.load();
  return n > spans_.size() ? n - spans_.size() : 0;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IoError("cannot write " + path);
  const size_t n = std::min(next_.load(), spans_.size());
  uint64_t origin = UINT64_MAX;
  for (size_t i = 0; i < n; ++i) origin = std::min(origin, spans_[i].start_ns);
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"tag\": %lld}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.tag));
  }
  std::fprintf(file, "\n]}\n");
  const bool ok = std::ferror(file) == 0;
  if (std::fclose(file) != 0 || !ok) {
    return Status::IoError("cannot write " + path);
  }
  return Status::OK();
}

Status ProfileLayers(const LayerInputs& inputs, SpanLog* log,
                     std::vector<Metric>* metrics, LayerResult* out) {
  const auto add = [metrics](const char* name, double value,
                             const char* unit) {
    metrics->push_back(Metric{name, value, unit});
  };

  // extract + rdf, loaded the way `midas discover` loads them: the corpus
  // onto a fresh dictionary, then the KB into the same dictionary.
  std::vector<double> load_s, kb_s;
  std::unique_ptr<rdf::KnowledgeBase> kb;
  for (int rep = 0; rep < kReps; ++rep) {
    web::Corpus corpus;
    uint64_t fingerprint = 0;
    const uint64_t t0 = NowNs();
    MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpus(
        inputs.dump_path, inputs.threshold, /*dict=*/nullptr, &corpus,
        &fingerprint));
    const uint64_t t1 = NowNs();
    MIDAS_RETURN_IF_ERROR(LoadKb(inputs.kb_path, &corpus, &kb));
    const uint64_t t2 = NowNs();
    log->Record("bench.load_corpus", t0, t1, rep);
    log->Record("bench.load_kb", t1, t2, rep);
    load_s.push_back(Seconds(static_cast<double>(t1 - t0)));
    kb_s.push_back(Seconds(static_cast<double>(t2 - t1)));
    out->corpus = std::move(corpus);
  }
  const web::Corpus& corpus = out->corpus;

  // Untraced and traced T-thread runs alternate, and the overhead is the
  // median ratio within a pair, so a drift of the machine cancels out.
  std::vector<double> traced_s, overhead;
  RunProfile profile;
  for (int rep = 0; rep < kReps; ++rep) {
    const double untraced_s =
        UntracedRun(corpus, *kb, inputs.threads, inputs.use_memo);
    profile = TracedRun(corpus, *kb, inputs.threads, inputs.use_memo,
                        /*sample=*/false, log);
    traced_s.push_back(profile.wall_s);
    overhead.push_back(Ratio(profile.wall_s, untraced_s));
  }
  // One thread: detect time without contention, and the replay sample.
  RunProfile serial = TracedRun(corpus, *kb, 1, inputs.use_memo,
                                /*sample=*/true, log);
  const ReplayTotals replay = Replay(serial.samples, *kb, log);

  const double run_s = Percentile(traced_s, 50);
  const auto shards = static_cast<double>(replay.shards);
  add("extract.load_s", Percentile(load_s, 50), "s");
  add("rdf.kb_load_s", Percentile(kb_s, 50), "s");
  add("framework.run_s", run_s, "s");
  add("framework.run_1t_s", serial.wall_s, "s");
  add("framework.parallel_speedup", Ratio(serial.wall_s, run_s), "ratio");
  add("framework.self_s", profile.wall_s - Seconds(profile.round_ns), "s");
  add("framework.rounds", static_cast<double>(profile.result.stats.rounds),
      "count");
  add("framework.shards",
      static_cast<double>(profile.result.stats.shards_processed), "count");
  add("executor.busy_s", Seconds(profile.round_ns), "s");
  add("executor.nondetect_1t_s",
      Seconds(serial.round_ns - serial.detect_ns), "s");
  add("detect.calls", static_cast<double>(profile.calls), "count");
  add("detect.busy_s", Seconds(profile.detect_ns), "s");
  add("detect.busy_1t_s", Seconds(serial.detect_ns), "s");
  add("detect.contention_ratio", Ratio(profile.detect_ns, serial.detect_ns),
      "ratio");
  add("detect.p50_us", Percentile(profile.detect_us, 50), "us");
  add("detect.p99_us", Percentile(profile.detect_us, 99), "us");
  add("detect.max_us", Percentile(profile.detect_us, 100), "us");
  add("detect.facts_per_call",
      Ratio(static_cast<double>(profile.facts),
            static_cast<double>(profile.calls)),
      "count");
  add("fact_table.us_per_call", Ratio(Micros(replay.fact_table_ns), shards),
      "us");
  add("profit.us_per_call", Ratio(Micros(replay.profit_ns), shards), "us");
  add("hierarchy.us_per_call", Ratio(Micros(replay.hierarchy_ns), shards),
      "us");
  add("traverse.us_per_call", Ratio(Micros(replay.traverse_ns), shards),
      "us");
  add("hierarchy.nodes_per_call", Ratio(replay.nodes, shards), "count");
  add("hierarchy.pruned_ratio", Ratio(replay.pruned, replay.nodes), "ratio");
  add("hierarchy.selected_per_node", Ratio(replay.selected, replay.nodes),
      "ratio");
  add("hierarchy.pooled_share",
      Ratio(static_cast<double>(replay.pooled), shards), "ratio");
  add("replay.coverage",
      Ratio(replay.fact_table_ns + replay.profit_ns + replay.hierarchy_ns +
                replay.traverse_ns,
            replay.detect_ns),
      "ratio");
  add("trace.overhead_ratio", Percentile(overhead, 50), "ratio");
  out->result = std::move(profile.result);
  out->kb_facts = kb->size();
  out->replay_shards = replay.shards;
  return Status::OK();
}

}  // namespace perfbench
}  // namespace midas
