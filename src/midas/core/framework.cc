#include "midas/core/framework.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "midas/core/consolidate.h"
#include "midas/fault/fault.h"
#include "midas/obs/obs.h"
#include "midas/store/checkpoint.h"
#include "midas/util/hash.h"
#include "midas/util/logging.h"
#include "midas/util/thread_pool.h"
#include "midas/util/timer.h"
#include "midas/web/url.h"

namespace midas {
namespace core {

bool DetectionMemo::Lookup(const std::string& url, uint64_t fingerprint,
                           Entry* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(url);
  if (it == entries_.end() || it->second.fingerprint != fingerprint) {
    return false;
  }
  *out = it->second;
  return true;
}

void DetectionMemo::Update(const std::string& url, Entry entry) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.insert_or_assign(url, std::move(entry));
}

size_t DetectionMemo::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

uint64_t DetectionMemo::ShardFingerprint(
    uint64_t context, const std::vector<rdf::Triple>& facts,
    const std::vector<std::vector<PropertyPair>>& seeds) {
  uint64_t fp = HashMix(context ^ 0x6d69646173736572ULL);  // "midasser"
  fp = HashCombine(fp, facts.size());
  for (const auto& t : facts) {
    fp = HashCombine(fp, HashMix(t.subject));
    fp = HashCombine(fp, HashMix(t.predicate));
    fp = HashCombine(fp, HashMix(t.object));
  }
  fp = HashCombine(fp, seeds.size());
  for (const auto& seed : seeds) {
    fp = HashCombine(fp, seed.size());
    for (const auto& pair : seed) {
      fp = HashCombine(fp, HashMix(pair.predicate));
      fp = HashCombine(fp, HashMix(pair.value));
    }
  }
  return HashMix(fp);
}

const char* SourceStatusName(SourceStatus status) {
  switch (status) {
    case SourceStatus::kOk:
      return "ok";
    case SourceStatus::kNoSlices:
      return "no_slices";
    case SourceStatus::kPartial:
      return "partial";
    case SourceStatus::kFailed:
      return "failed";
    case SourceStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// Per-URL work unit accumulated while walking the hierarchy upward.
struct Shard {
  std::string url;
  /// All facts in this URL's subtree (direct + bubbled up from children).
  /// Layout: an unsorted direct-extraction prefix, then zero or more
  /// sorted, deduplicated runs bubbled up from already-processed children
  /// (each child's facts were normalized in its round).
  std::vector<rdf::Triple> facts;
  /// Start offset of each sorted child run appended to `facts`.
  std::vector<size_t> run_begins;
  /// Slices exported by children rounds (tentative results).
  std::vector<DiscoveredSlice> child_slices;
  /// Indices into the run corpus's sources() whose facts landed in this
  /// subtree; bubbles up with `facts` and becomes ShardTask::source_ids.
  std::vector<uint32_t> source_ids;
};

/// Sorts + dedupes `shard->facts` in place: sorts the direct prefix, then
/// folds each already-sorted child run in via inplace_merge — O(n log r)
/// instead of re-sorting the whole subtree's facts from scratch at every
/// level of the URL hierarchy.
void NormalizeShardFacts(Shard* shard) {
  auto& f = shard->facts;
  const size_t direct_end =
      shard->run_begins.empty() ? f.size() : shard->run_begins[0];
  std::sort(f.begin(), f.begin() + static_cast<ptrdiff_t>(direct_end));
  for (size_t i = 0; i < shard->run_begins.size(); ++i) {
    const size_t mid = shard->run_begins[i];
    const size_t end =
        i + 1 < shard->run_begins.size() ? shard->run_begins[i + 1] : f.size();
    std::inplace_merge(f.begin(), f.begin() + static_cast<ptrdiff_t>(mid),
                       f.begin() + static_cast<ptrdiff_t>(end));
  }
  f.erase(std::unique(f.begin(), f.end()), f.end());
  shard->run_begins.clear();
}

/// Where a round's shard outcome came from.
enum class Origin : char {
  kExecuted,    // handed to the executor (or never picked up)
  kCheckpoint,  // restored from the checkpoint log
  kMemo,        // restored from the detection memo
};

/// Projects the per-shard detection knobs out of the run's options — the
/// same values whether the shard runs here or in a dist worker.
ShardDetectOptions DetectOptionsFrom(const FrameworkOptions& options) {
  ShardDetectOptions detect;
  detect.source_deadline_ms = options.source_deadline_ms;
  detect.max_retries = options.max_retries;
  detect.retry_backoff_ms = options.retry_backoff_ms;
  detect.run_seed = options.run_seed;
  detect.run_cancel = options.cancel;
  return detect;
}

// Registry handles for DetectShardWithRetry, resolved once per process (the
// registry resets counters in place, so the pointers survive test resets).
obs::Counter* DetectorErrorsCounter() {
  static obs::Counter* counter =
      MIDAS_OBS_COUNTER("framework.detector_errors");
  return counter;
}

obs::Counter* ShardRetriesCounter() {
  static obs::Counter* counter = MIDAS_OBS_COUNTER("framework.shard_retries");
  return counter;
}

obs::Counter* ShardsFailedCounter() {
  static obs::Counter* counter = MIDAS_OBS_COUNTER("framework.shards_failed");
  return counter;
}

obs::Counter* DeadlineExpirationsCounter() {
  static obs::Counter* counter =
      MIDAS_OBS_COUNTER("framework.deadline_expirations");
  return counter;
}

}  // namespace

uint64_t ComputeRunFingerprint(const web::Corpus& corpus,
                               const FrameworkOptions& options) {
  uint64_t fp = HashMix(options.run_seed);
  fp = HashCombine(fp, options.use_hierarchy_rounds ? 1u : 0u);
  fp = HashCombine(fp, options.detector_context);
  for (const auto& source : corpus.sources()) {
    fp = HashCombine(fp, Fnv1a64(source.url));
    fp = HashCombine(fp, source.facts.size());
    for (const rdf::Triple& t : source.facts) {
      fp = HashCombine(fp, (static_cast<uint64_t>(t.subject) << 32) |
                               t.predicate);
      fp = HashCombine(fp, t.object);
    }
  }
  // Ids mean the same terms only under the same dictionary.
  const rdf::Dictionary& dict = corpus.dict();
  fp = HashCombine(fp, dict.size());
  for (size_t id = 0; id < dict.size(); ++id) {
    fp = HashCombine(fp, Fnv1a64(dict.Term(static_cast<rdf::TermId>(id))));
  }
  return HashMix(fp);
}

ShardDetectResult DetectShardWithRetry(const SliceDetector& detector,
                                       const rdf::KnowledgeBase& kb,
                                       SourceInput* input,
                                       const ShardDetectOptions& options) {
  // Resolved up front (not at first use) so the counters exist in the
  // registry — and in /metricz — even on runs that never error or retry.
  [[maybe_unused]] obs::Counter* detector_errors = DetectorErrorsCounter();
  [[maybe_unused]] obs::Counter* shard_retries = ShardRetriesCounter();
  [[maybe_unused]] obs::Counter* shards_failed = ShardsFailedCounter();
  [[maybe_unused]] obs::Counter* deadline_expirations =
      DeadlineExpirationsCounter();
  ShardDetectResult out;
  const auto run_cancelled = [&options] {
    return options.run_cancel != nullptr && options.run_cancel->Expired();
  };
  const size_t max_attempts = options.max_retries + 1;
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (run_cancelled()) {
      // Run budget beats retrying: report cancelled (attempts records how
      // far we got) rather than burn more detector time.
      return out;
    }
    if (attempt > 1) {
      MIDAS_OBS_ADD(shard_retries, 1);
      // The span measures the backoff wait for this retry.
      MIDAS_OBS_SPAN(retry_span, "shard_retry", input->url);
      // Exponential backoff with deterministic jitter: replays with the
      // same run_seed sleep identically.
      const uint64_t base = options.retry_backoff_ms << (attempt - 2);
      const uint64_t jitter =
          base == 0
              ? 0
              : HashMix(options.run_seed ^ Fnv1a64(input->url) ^ attempt) %
                    (base + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(base + jitter));
    }
    out.attempts = attempt;
    // Per-attempt budget, tightened by the whole-run deadline. A sticky
    // run-level Cancel() with no deadline is still only observed at the
    // boundaries above (the token cannot chain another token).
    fault::CancelToken budget;
    const fault::CancelToken* cancel = options.run_cancel;
    if (options.source_deadline_ms > 0) {
      budget.SetBudgetMs(options.source_deadline_ms);
      const uint64_t run_deadline =
          options.run_cancel != nullptr ? options.run_cancel->deadline_ns()
                                        : 0;
      if (run_deadline != 0 && run_deadline < budget.deadline_ns()) {
        budget.SetDeadlineNs(run_deadline);
      }
      cancel = &budget;
    }
    input->cancel = cancel;
    try {
      MIDAS_FAULT_MAYBE_SLEEP(fault::kSiteSlowShard, input->url);
      // Keyed by attempt too, so a rate < 1 site can clear on retry while
      // rate = 1 models a permanently broken source.
      MIDAS_FAULT_MAYBE_THROW(fault::kSiteDetector,
                              input->url + "#" + std::to_string(attempt));
      out.slices = detector.Detect(*input, kb);
      input->cancel = nullptr;
      // A recovered shard is indistinguishable from a clean one: the
      // report's error field is non-empty iff the shard ultimately failed
      // (attempts still records the retries).
      out.error.clear();
      if (cancel != nullptr && cancel->Expired()) {
        // Best-so-far prefix; no retry — a fresh attempt would run out of
        // the same budget before getting further.
        MIDAS_OBS_ADD(deadline_expirations, 1);
        out.status = SourceStatus::kPartial;
      } else {
        out.status = out.slices.empty() ? SourceStatus::kNoSlices
                                        : SourceStatus::kOk;
      }
      return out;
    } catch (const std::exception& e) {
      input->cancel = nullptr;
      MIDAS_OBS_ADD(detector_errors, 1);
      out.error = e.what();
      MIDAS_LOG(Warning) << "detector failed on " << input->url << " (attempt "
                         << attempt << "/" << max_attempts
                         << "): " << e.what();
    }
  }
  MIDAS_OBS_ADD(shards_failed, 1);
  out.status = SourceStatus::kFailed;
  return out;
}

void InProcessShardExecutor::ExecuteRound(
    const ShardExecutionContext& ctx, std::vector<ShardTask>* tasks,
    std::vector<ShardTaskResult>* results) {
  [[maybe_unused]] obs::Histogram* shard_us =
      MIDAS_OBS_HISTOGRAM("framework.shard_us");
  const auto cancelled = [&ctx] {
    return ctx.cancel != nullptr && ctx.cancel->Expired();
  };
  const auto run_task = [&](size_t i) {
    ShardTask& task = (*tasks)[i];
    if (task.facts == nullptr) return;
    ShardTaskResult& res = (*results)[i];
    MIDAS_OBS_SPAN(source_span, "framework.source", task.url);
    const uint64_t start_ns = MIDAS_OBS_NOW_NS();
    (void)start_ns;  // unused in a MIDAS_OBS_NOOP build
    SourceInput input;
    input.url = std::move(task.url);  // handed back after detection
    input.facts = task.facts;
    if (task.consolidate) {
      input.seeds.reserve(task.child_slices.size());
      for (const auto& cs : task.child_slices) {
        input.seeds.push_back(cs.properties);
      }
    }
    static_cast<ShardDetectResult&>(res) =
        DetectShardWithRetry(*ctx.detector, *ctx.kb, &input, ctx.detect);
    task.url = std::move(input.url);
    if (task.want_raw) {
      res.raw_slices = res.slices;
      res.has_raw = true;
    }
    // A failed/cancelled shard contributes no new slices, but its
    // children's tentative slices still win consolidation unopposed.
    if (task.consolidate) {
      res.slices = ConsolidateSlices(std::move(res.slices),
                                     std::move(task.child_slices));
    }
    res.ran = true;
    MIDAS_OBS_RECORD(shard_us, (MIDAS_OBS_NOW_NS() - start_ns) / 1000);
  };
  if (ctx.pool != nullptr) {
    ctx.pool->ParallelFor(tasks->size(), run_task, cancelled);
    return;
  }
  for (size_t i = 0; i < tasks->size(); ++i) {
    if (cancelled()) break;
    run_task(i);
  }
}

MidasFramework::MidasFramework(const SliceDetector* detector,
                               FrameworkOptions options)
    : detector_(detector), options_(options) {
  MIDAS_CHECK(detector_ != nullptr);
}

FrameworkResult MidasFramework::Run(const web::Corpus& corpus,
                                    const rdf::KnowledgeBase& kb) const {
  MIDAS_OBS_SPAN(run_span, "framework.run");
  MIDAS_OBS_ADD(MIDAS_OBS_COUNTER("framework.runs"), 1);
  // Shared-registry handles resolved once per Run; the per-shard tasks
  // record through them lock-free. ([[maybe_unused]]: the recording macros
  // compile out under MIDAS_OBS_NOOP.)
  [[maybe_unused]] obs::Histogram* normalize_us =
      MIDAS_OBS_HISTOGRAM("framework.normalize_us");
  [[maybe_unused]] obs::Histogram* merge_us =
      MIDAS_OBS_HISTOGRAM("framework.merge_us");
  [[maybe_unused]] obs::Counter* memo_hits_c =
      MIDAS_OBS_COUNTER("framework.memo_hits");
  [[maybe_unused]] obs::Counter* memo_misses_c =
      MIDAS_OBS_COUNTER("framework.memo_misses");

  Stopwatch watch;
  FrameworkResult result;
  ThreadPool pool(options_.num_threads);

  const auto run_cancelled = [this] {
    return options_.cancel != nullptr && options_.cancel->Expired();
  };

  // Checkpointing: restore completed sources from a previous (killed) run,
  // then durably append each source this run finishes. The dictionary is
  // read-only during Run, so serializing terms from pool-adjacent code is
  // safe.
  [[maybe_unused]] obs::Counter* ckpt_appends_c =
      MIDAS_OBS_COUNTER("framework.checkpoint_appends");
  [[maybe_unused]] obs::Counter* ckpt_errors_c =
      MIDAS_OBS_COUNTER("framework.checkpoint_errors");
  [[maybe_unused]] obs::Counter* resumed_c =
      MIDAS_OBS_COUNTER("framework.sources_resumed");
  store::CheckpointWriter ckpt_writer;
  std::unordered_map<std::string, store::CheckpointEntry> resumed_entries;
  bool checkpointing = false;
  if (!options_.checkpoint_dir.empty()) {
    const std::string ckpt_path =
        options_.checkpoint_dir + "/" + store::kCheckpointFileName;
    const uint64_t fingerprint = ComputeRunFingerprint(corpus, options_);
    Status open_status;
    if (options_.resume) {
      StatusOr<store::CheckpointLoadResult> loaded =
          store::LoadCheckpoint(ckpt_path, fingerprint, corpus.dict());
      if (loaded.ok()) {
        for (auto& entry : loaded->entries) {
          std::string url = entry.url;
          resumed_entries.insert_or_assign(std::move(url), std::move(entry));
        }
        open_status = ckpt_writer.OpenForAppend(ckpt_path, loaded->valid_bytes);
      } else if (loaded.status().code() == StatusCode::kNotFound) {
        // Nothing to resume from; behave like a fresh checkpointed run.
        open_status = ckpt_writer.Create(ckpt_path, fingerprint);
      } else {
        // Wrong fingerprint/version or corrupt beyond the tail: resuming
        // would merge results that don't belong to this run. Start over.
        MIDAS_LOG(Warning) << "ignoring unusable checkpoint " << ckpt_path
                           << ": " << loaded.status().ToString();
        open_status = ckpt_writer.Create(ckpt_path, fingerprint);
      }
    } else {
      open_status = ckpt_writer.Create(ckpt_path, fingerprint);
    }
    if (open_status.ok()) {
      checkpointing = true;
    } else {
      MIDAS_LOG(Warning) << "checkpointing disabled: "
                         << open_status.ToString();
      result.stats.checkpoint_write_errors++;
      MIDAS_OBS_ADD(ckpt_errors_c, 1);
    }
  }

  // Folds one shard's outcome into the result's reports and stats
  // (single-threaded: called only after each round's executor returns).
  const auto record = [&](const std::string& url, const ShardDetectResult& out,
                          Origin origin) {
    SourceReport report;
    report.url = url;
    report.status = out.status;
    report.attempts = out.attempts;
    report.error = out.error;
    result.sources.push_back(std::move(report));
    result.stats.detector_calls += out.attempts;
    if (out.attempts > 1) result.stats.shard_retries += out.attempts - 1;
    if (out.status == SourceStatus::kFailed) result.stats.shards_failed++;
    if (out.status == SourceStatus::kPartial) {
      result.stats.deadline_expirations++;
    }
    if (out.status == SourceStatus::kPartial ||
        out.status == SourceStatus::kCancelled) {
      result.partial = true;
    }
    if (origin == Origin::kCheckpoint) {
      result.stats.sources_resumed++;
      MIDAS_OBS_ADD(resumed_c, 1);
    } else if (origin == Origin::kMemo) {
      result.stats.memo_hits++;
      MIDAS_OBS_ADD(memo_hits_c, 1);
    } else if (options_.memo != nullptr && out.attempts > 0) {
      // A shard the memo could not serve and the run actually detected.
      result.stats.memo_misses++;
      MIDAS_OBS_ADD(memo_misses_c, 1);
    }
  };

  // Durably appends one finished shard (single-threaded: called from the
  // post-round fold). Resumed shards are already in the log; cancelled
  // shards never enter it — a resumed run must re-attempt them, exactly as
  // an uninterrupted run would have processed them. After a failed append
  // the log's tail may be torn, so checkpointing shuts off for the rest of
  // the run rather than bury further records behind unreadable bytes (a
  // later --resume still recovers the valid prefix).
  const auto checkpoint = [&](const std::string& url,
                              const ShardDetectResult& out, Origin origin) {
    if (!checkpointing || origin == Origin::kCheckpoint ||
        out.status == SourceStatus::kCancelled) {
      return;
    }
    store::CheckpointEntry entry;
    entry.url = url;
    entry.status = out.status;
    entry.attempts = static_cast<uint32_t>(out.attempts);
    entry.error = out.error;
    entry.slices = out.slices;  // copied: the fold still moves them onward
    const Status status = ckpt_writer.Append(entry, corpus.dict());
    if (!status.ok()) {
      MIDAS_LOG(Warning)
          << "checkpoint append failed (checkpointing disabled for the rest "
             "of the run): "
          << status.ToString();
      result.stats.checkpoint_write_errors++;
      MIDAS_OBS_ADD(ckpt_errors_c, 1);
      checkpointing = false;
    } else {
      MIDAS_OBS_ADD(ckpt_appends_c, 1);
    }
  };

  // Hierarchy mode plans one shard per URL, starting from the explicit
  // sources; ablation mode is a single depth-0 round of one unnormalized,
  // unconsolidated task per explicit source (no shard ever bubbles up).
  // The frontier is keyed by depth, then URL: a round takes its shards in
  // URL order, so a parent's child slices (the detector's seeds) arrive in
  // an order that depends only on the URLs — never on which other domains
  // share the corpus. A shard's parent always lands one depth up, so the
  // depth-0 shard a source's facts end in is web::UrlAncestry's root.
  const bool hierarchy = options_.use_hierarchy_rounds;
  const auto& sources = corpus.sources();
  std::vector<std::map<std::string, Shard>> frontier;
  if (hierarchy) {
    for (size_t si = 0; si < sources.size(); ++si) {
      const auto& source = sources[si];
      const size_t depth = web::UrlDepth(source.url);
      if (frontier.size() <= depth) frontier.resize(depth + 1);
      Shard& shard = frontier[depth][source.url];
      if (shard.url.empty()) shard.url = source.url;
      shard.facts.insert(shard.facts.end(), source.facts.begin(),
                         source.facts.end());
      shard.source_ids.push_back(static_cast<uint32_t>(si));
    }
  }
  const size_t max_depth = frontier.empty() ? 0 : frontier.size() - 1;

  InProcessShardExecutor in_process;
  ShardExecutor* executor =
      options_.executor != nullptr ? options_.executor : &in_process;
  ShardExecutionContext ctx;
  ctx.detector = detector_;
  ctx.kb = &kb;
  ctx.pool = &pool;
  ctx.detect = DetectOptionsFrom(options_);
  ctx.cancel = options_.cancel;

  std::vector<DiscoveredSlice> final_slices;

  // Rounds: depth d = max .. 0. Each round prepares its shards, hands the
  // runnable ones to the executor, then folds every outcome into the
  // result; surviving slices and facts bubble to depth d-1.
  for (size_t depth = max_depth + 1; depth-- > 0;) {
    // A shard's identity (url, child slices, source ids) moves into its
    // task; `round` keeps the facts the task points at.
    std::vector<Shard> round;
    std::vector<ShardTask> tasks;
    if (hierarchy) {
      if (depth >= frontier.size() || frontier[depth].empty()) continue;
      round.reserve(frontier[depth].size());
      for (auto& [url, shard] : frontier[depth]) {
        round.push_back(std::move(shard));
      }
      frontier[depth].clear();
      tasks.resize(round.size());
      for (size_t i = 0; i < round.size(); ++i) {
        tasks[i].url = std::move(round[i].url);
        tasks[i].child_slices = std::move(round[i].child_slices);
        tasks[i].source_ids = std::move(round[i].source_ids);
        tasks[i].consolidate = true;
      }
    } else {
      tasks.resize(sources.size());
      for (size_t i = 0; i < sources.size(); ++i) {
        tasks[i].url = sources[i].url;
        tasks[i].source_ids.push_back(static_cast<uint32_t>(i));
      }
    }
    result.stats.rounds++;
    MIDAS_OBS_SPAN(round_span, "framework.round",
                   "depth=" + std::to_string(depth));

    // Prepare on the pool: normalize, then restore the shard from the
    // checkpoint or the memo. Only what is left gets facts (= runnable).
    std::vector<ShardTaskResult> results(tasks.size());
    std::vector<Origin> origins(tasks.size(), Origin::kExecuted);
    std::vector<uint64_t> memo_fps(tasks.size(), 0);
    pool.ParallelFor(
        tasks.size(),
        [&](size_t i) {
          ShardTask& task = tasks[i];
          ShardTaskResult& res = results[i];
          if (hierarchy) {
            const uint64_t start_ns = MIDAS_OBS_NOW_NS();
            (void)start_ns;  // unused in a MIDAS_OBS_NOOP build
            // The same triple can be extracted from several child pages;
            // the fact table requires a duplicate-free T_W.
            NormalizeShardFacts(&round[i]);
            MIDAS_OBS_RECORD(normalize_us,
                             (MIDAS_OBS_NOW_NS() - start_ns) / 1000);
          }
          const std::vector<rdf::Triple>& facts =
              hierarchy ? round[i].facts : sources[i].facts;
          const auto resumed_it = resumed_entries.find(task.url);
          if (resumed_it != resumed_entries.end()) {
            // Already completed by the checkpointed run. The entry stores
            // this shard's *post-consolidation* surviving slices, so both
            // detect and ConsolidateSlices are skipped; the normalized
            // facts above still bubble to the parent deterministically.
            // (Each shard touches only its own map entry, so the
            // concurrent moves are safe.)
            MIDAS_OBS_SPAN(source_span, "framework.source", task.url);
            res.slices = std::move(resumed_it->second.slices);
            res.status = resumed_it->second.status;
            res.attempts = resumed_it->second.attempts;
            res.error = resumed_it->second.error;
            res.ran = true;
            origins[i] = Origin::kCheckpoint;
            return;
          }
          if (options_.memo != nullptr) {
            // The fingerprint covers the normalized facts AND the child
            // seeds, so a hit implies the detector would have seen
            // byte-identical inputs. Consolidation still runs against the
            // live child slices.
            std::vector<std::vector<PropertyPair>> seeds;
            seeds.reserve(task.child_slices.size());
            for (const auto& cs : task.child_slices) {
              seeds.push_back(cs.properties);
            }
            memo_fps[i] = DetectionMemo::ShardFingerprint(
                options_.detector_context, facts, seeds);
            DetectionMemo::Entry entry;
            if (options_.memo->Lookup(task.url, memo_fps[i], &entry)) {
              MIDAS_OBS_SPAN(source_span, "framework.source", task.url);
              static_cast<ShardDetectResult&>(res) = std::move(entry);
              if (task.consolidate) {
                res.slices = ConsolidateSlices(std::move(res.slices),
                                               std::move(task.child_slices));
              }
              res.ran = true;
              origins[i] = Origin::kMemo;
              return;
            }
            task.want_raw = true;
          }
          task.facts = &facts;
        },
        run_cancelled);

    executor->ExecuteRound(ctx, &tasks, &results);

    const bool cancelled_now = run_cancelled();
    const uint64_t merge_start_ns = MIDAS_OBS_NOW_NS();
    (void)merge_start_ns;  // unused in a MIDAS_OBS_NOOP build
    // Export upward (or finalize at depth 0). A cancelled run still exports
    // this round, so every parent it feeds is planned and then drained
    // below (reported cancelled, its children's slices surfaced as final):
    // a cut above depth 0 always leaves a cancelled report, and the caller
    // still sees the best-so-far state.
    for (size_t i = 0; i < tasks.size(); ++i) {
      ShardTask& task = tasks[i];
      ShardTaskResult& res = results[i];
      record(task.url, res, origins[i]);
      // Checkpoint before the slices are moved onward (skips shards the
      // run never picked up: their default outcome is kCancelled).
      checkpoint(task.url, res, origins[i]);
      // Only clean outcomes are memoized: partial, failed and cancelled
      // shards re-detect on the next run.
      if (options_.memo != nullptr && res.has_raw &&
          (res.status == SourceStatus::kOk ||
           res.status == SourceStatus::kNoSlices)) {
        DetectionMemo::Entry entry;
        entry.fingerprint = memo_fps[i];
        entry.status = res.status;
        entry.attempts = res.attempts;
        entry.error = res.error;
        entry.slices = std::move(res.raw_slices);
        options_.memo->Update(task.url, std::move(entry));
      }
      if (!res.ran) {
        // The executor left the children's tentative slices in the task.
        for (auto& s : task.child_slices) final_slices.push_back(std::move(s));
        continue;
      }
      result.stats.shards_processed++;
      if (depth == 0) {
        for (auto& s : res.slices) final_slices.push_back(std::move(s));
        continue;
      }
      std::string parent_url = web::ParentUrlString(task.url);
      Shard& parent = frontier[depth - 1][parent_url];
      if (parent.url.empty()) parent.url = std::move(parent_url);
      // The shard's facts are sorted + deduped (normalized above); record
      // the run boundary so the parent's normalization can merge instead
      // of sort.
      const std::vector<rdf::Triple>& facts = round[i].facts;
      parent.facts.reserve(parent.facts.size() + facts.size());
      parent.run_begins.push_back(parent.facts.size());
      parent.facts.insert(parent.facts.end(), facts.begin(), facts.end());
      parent.source_ids.insert(parent.source_ids.end(),
                               task.source_ids.begin(), task.source_ids.end());
      parent.child_slices.reserve(parent.child_slices.size() +
                                  res.slices.size());
      for (auto& s : res.slices) parent.child_slices.push_back(std::move(s));
    }
    MIDAS_OBS_RECORD(merge_us, (MIDAS_OBS_NOW_NS() - merge_start_ns) / 1000);

    if (cancelled_now) {
      // Drain the untouched shallower frontier: report each planned shard
      // cancelled and surface its children's tentative slices.
      for (auto& level : frontier) {
        for (auto& [url, shard] : level) {
          record(url, ShardDetectResult{}, Origin::kExecuted);
          for (auto& s : shard.child_slices) {
            final_slices.push_back(std::move(s));
          }
        }
      }
      frontier.clear();
      break;
    }
  }

  if (ckpt_writer.is_open()) {
    const Status status = ckpt_writer.Close();
    if (!status.ok()) {
      MIDAS_LOG(Warning) << "checkpoint close failed: " << status.ToString();
      result.stats.checkpoint_write_errors++;
      MIDAS_OBS_ADD(ckpt_errors_c, 1);
    }
  }
  // Deterministic report order regardless of shard scheduling. Stable so
  // duplicate URLs (possible in ablation mode) keep corpus order.
  std::stable_sort(result.sources.begin(), result.sources.end(),
                   [](const SourceReport& a, const SourceReport& b) {
                     return a.url < b.url;
                   });
  result.slices = std::move(final_slices);
  SortByProfitDesc(&result.slices);
  result.stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace core
}  // namespace midas
