#ifndef MIDAS_CORE_FRAMEWORK_H_
#define MIDAS_CORE_FRAMEWORK_H_

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "midas/core/slice_detector.h"
#include "midas/core/types.h"
#include "midas/fault/cancel.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/web/web_source.h"

namespace midas {

class ThreadPool;

namespace core {

// Defined below SourceStatus; FrameworkOptions only holds a pointer.
class DetectionMemo;
class ShardExecutor;

/// Options of the multi-source framework.
struct FrameworkOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 0;

  /// If false, skip the bottom-up rounds and just run the detector on each
  /// explicit source independently — the paper's "naïve approach" of
  /// applying MIDASalg on every web source, kept for the ablation bench.
  bool use_hierarchy_rounds = true;

  /// Per-source detection budget in milliseconds; 0 = unbounded. A shard
  /// whose budget expires returns its best-so-far slices, is reported
  /// kPartial, and is not retried (a retry would deterministically run out
  /// of the same budget).
  uint64_t source_deadline_ms = 0;

  /// Retries after a shard's detector throws (total attempts = 1 + retries).
  size_t max_retries = 2;

  /// Base backoff before retry r (1-based): backoff_ms << (r-1), plus a
  /// deterministic jitter in [0, base] derived from (run_seed, url, r).
  uint64_t retry_backoff_ms = 5;

  /// Seed for retry jitter (and anything else that wants run-scoped
  /// determinism). Two runs with the same seed back off identically.
  uint64_t run_seed = 0;

  /// Optional whole-run cancel/deadline. Polled at shard boundaries: once
  /// expired, queued shards are skipped (reported kCancelled) and the run
  /// returns the slices consolidated so far with result.partial set. Also
  /// tightens each shard's own token, so in-flight detection stops at the
  /// next hierarchy level boundary. Null = unbounded. Must outlive Run.
  const fault::CancelToken* cancel = nullptr;

  /// Directory for the run's checkpoint log (store::kCheckpointFileName
  /// inside it; the directory must exist). After each source finishes, its
  /// report + surviving slices are appended durably, so a killed run can
  /// continue where it stopped. Empty = no checkpointing.
  std::string checkpoint_dir;

  /// With checkpoint_dir set: load the existing checkpoint, skip sources
  /// it already records (restoring their reports and slices bit-exactly),
  /// and append the rest. A checkpoint from a different corpus/seed/mode
  /// (fingerprint mismatch) or a corrupt one is discarded with a warning
  /// and the run starts fresh. False = truncate any existing checkpoint.
  bool resume = false;

  /// Cross-run detection memo (see DetectionMemo below): shards whose
  /// detector inputs are unchanged since the last memoized run skip the
  /// Detect call and restore its output bit-exactly. Null = no memoization.
  /// Must outlive Run; the checkpoint restore path takes precedence when
  /// both are configured.
  DetectionMemo* memo = nullptr;

  /// Identity of the detector the run uses: everything its output depends
  /// on besides a shard's facts and seeds — the method, cost model, range
  /// extension and KB content (baselines::DetectorContext computes it).
  /// Mixed into every memo fingerprint, so one memo serves differently
  /// configured runs without cross-talk, and into ComputeRunFingerprint, so
  /// a resume or a dist worker with another detector is rejected.
  uint64_t detector_context = 0;

  /// Round executor (see ShardExecutor below). Every round — in both
  /// modes — hands its non-restored shards to this executor as ShardTasks;
  /// null means a run-local InProcessShardExecutor (detect + consolidate on
  /// the run's thread pool). Checkpointing, resume, memoization, and the
  /// post-round merge stay on the framework side whichever executor runs
  /// the shards. Must outlive Run.
  ShardExecutor* executor = nullptr;
};

/// Counters reported by a framework run.
struct FrameworkStats {
  size_t rounds = 0;
  size_t shards_processed = 0;
  size_t detector_calls = 0;
  size_t shard_retries = 0;      // detector re-attempts after a throw
  size_t shards_failed = 0;      // shards whose every attempt threw
  size_t deadline_expirations = 0;  // shards that ran out of budget
  size_t sources_resumed = 0;    // shards restored from the checkpoint
  size_t checkpoint_write_errors = 0;  // failed checkpoint appends
  size_t memo_hits = 0;          // shards restored from the detection memo
  size_t memo_misses = 0;        // shards the memo had to re-detect
  double seconds = 0.0;
};

/// Terminal status of one source (= one shard) in a framework run.
enum class SourceStatus {
  /// Detection completed and produced at least one slice.
  kOk,
  /// Detection completed but selected no slices (a real outcome: nothing
  /// in the source beat the cost side of the profit model). Distinct from
  /// kFailed — the source was *looked at*, it just has nothing to offer.
  kNoSlices,
  /// The per-source budget expired; the reported slices are the detector's
  /// best-so-far prefix (coarse hierarchy levels first).
  kPartial,
  /// Every detection attempt threw; the source contributed no new slices
  /// (child-round slices still survive consolidation). `error` holds the
  /// last attempt's message.
  kFailed,
  /// The whole-run cancel expired before this shard was picked up.
  kCancelled,
};

/// Human-readable status name ("ok", "no_slices", ...), stable for logs,
/// CLI output, and golden files.
const char* SourceStatusName(SourceStatus status);

/// The subset of FrameworkOptions one shard's detect-with-retry loop needs.
/// A distributed worker runs the same loop out of process; keeping the knobs
/// in one struct is what makes "same options ⇒ bit-identical retry/fault
/// behavior" checkable (fault keys are `url#attempt`, jitter derives from
/// run_seed — neither depends on which process runs the shard).
struct ShardDetectOptions {
  /// See the FrameworkOptions fields of the same names.
  uint64_t source_deadline_ms = 0;
  size_t max_retries = 2;
  uint64_t retry_backoff_ms = 5;
  uint64_t run_seed = 0;
  /// Whole-run cancel: polled between attempts and folded into the
  /// per-attempt budget. Null = unbounded (a remote worker's default — the
  /// coordinator owns the run budget and simply stops assigning).
  const fault::CancelToken* run_cancel = nullptr;
};

/// Outcome of one shard: DetectShardWithRetry's return value, and the base
/// of the executor's ShardTaskResult and the memo's Entry. The default
/// (kCancelled, 0 attempts) is exactly the report for a shard the run never
/// picked up.
struct ShardDetectResult {
  std::vector<DiscoveredSlice> slices;
  SourceStatus status = SourceStatus::kCancelled;
  size_t attempts = 0;
  std::string error;
};

/// Runs the detector on one shard with a per-shard error boundary and
/// bounded retry: a throwing detector is re-attempted up to max_retries
/// times with exponential backoff + deterministic jitter; only when every
/// attempt throws is the shard reported kFailed. A shard whose per-attempt
/// budget expires returns its best-so-far slices as kPartial and is not
/// retried. This is THE per-shard execution path — the in-process framework
/// and the dist worker both call it, which is what pins their bit-identity.
/// `input->cancel` is overwritten per attempt and cleared on return.
ShardDetectResult DetectShardWithRetry(const SliceDetector& detector,
                                       const rdf::KnowledgeBase& kb,
                                       SourceInput* input,
                                       const ShardDetectOptions& options);

/// One shard of one round, as handed to a ShardExecutor. Tasks are indexed
/// like the round: results[i] answers tasks[i].
struct ShardTask {
  std::string url;
  /// Normalized (sorted + deduped) subtree facts. Null marks a task the
  /// executor must NOT run — the framework already restored this shard from
  /// the checkpoint or memo, or the run was cancelled before the shard was
  /// prepared. The executor leaves its result untouched (ran = false).
  const std::vector<rdf::Triple>* facts = nullptr;
  /// Tentative slices exported by children rounds. Their properties are the
  /// detector's seeds (in order). An executor may consume them for tasks it
  /// runs, but must leave them intact on tasks it does not run: the
  /// framework surfaces them as best-so-far results for skipped shards.
  std::vector<DiscoveredSlice> child_slices;
  /// Hierarchy mode: run ConsolidateSlices(detected, child_slices) and
  /// return the survivors. Ablation mode (false): return raw detector
  /// output and ignore child_slices.
  bool consolidate = false;
  /// Also return the raw pre-consolidation detector output (for the
  /// detection memo). Executors that cannot provide it (a remote worker
  /// only ships survivors) leave has_raw false and the framework simply
  /// skips memoizing that shard.
  bool want_raw = false;
  /// Indices into the run corpus's sources() whose facts make up this
  /// shard's subtree; an executor whose workers hold the corpus names the
  /// shard by these instead of shipping `facts`. Hierarchy tasks
  /// (consolidate): `facts` is the sorted, deduplicated union of the named
  /// sources' fact lists. Ablation tasks: exactly one id, and `facts` is
  /// that source's fact list as is.
  std::vector<uint32_t> source_ids;
};

/// Executor-side outcome of one ShardTask. `slices` holds the
/// post-consolidation survivors (== raw detector output when
/// task.consolidate was false).
struct ShardTaskResult : ShardDetectResult {
  /// Raw detector output, iff task.want_raw and has_raw.
  std::vector<DiscoveredSlice> raw_slices;
  bool has_raw = false;
  /// True iff the executor actually processed the task. False for null-fact
  /// tasks and tasks abandoned when ctx.cancel expired.
  bool ran = false;
};

/// Everything an executor may need from the run: the framework's detector
/// and KB (in-process execution), the run's thread pool, the per-shard
/// detect options, and the whole-run cancel. Stateless executors (the
/// default in-process one) use all of it; a distributed coordinator ignores
/// detector/kb/pool — its workers own their own — and polls only cancel.
struct ShardExecutionContext {
  const SliceDetector* detector = nullptr;
  const rdf::KnowledgeBase* kb = nullptr;
  ThreadPool* pool = nullptr;
  ShardDetectOptions detect;
  const fault::CancelToken* cancel = nullptr;
};

/// Pluggable "run one round of shards" strategy (FrameworkOptions::
/// executor). The framework keeps everything stateful — sharding,
/// normalization, checkpoint/resume, memo, merge, reporting — and delegates
/// only the embarrassingly parallel middle: detect (+ consolidate) each
/// prepared task. Contract: results->size() == tasks->size() on entry;
/// fill results[i] and set ran for every task processed; stop early (leave
/// ran = false) once ctx.cancel expires; never touch null-fact tasks. A
/// round that returned early on cancel is the executor's last.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;
  virtual void ExecuteRound(const ShardExecutionContext& ctx,
                            std::vector<ShardTask>* tasks,
                            std::vector<ShardTaskResult>* results) = 0;
};

/// The built-in strategy: detect with retry (+ consolidate) on the run's
/// thread pool, one framework.source span and one framework.shard_us sample
/// per executed task. A run with FrameworkOptions::executor == nullptr uses
/// a run-local instance; dist tests pin it against DistCoordinator.
class InProcessShardExecutor : public ShardExecutor {
 public:
  void ExecuteRound(const ShardExecutionContext& ctx,
                    std::vector<ShardTask>* tasks,
                    std::vector<ShardTaskResult>* results) override;
};

/// In-memory per-source detection cache — the online analog of the durable
/// checkpoint log. A long-lived owner (the `midas serve` daemon) keeps one
/// memo across framework runs over an evolving corpus: each shard's
/// detector output is stored under a fingerprint of everything the detector
/// saw (normalized facts, child seeds, and the run's detector_context), so
/// the next run re-detects only shards whose inputs actually changed and
/// restores the rest bit-identically. Ingesting a fact delta therefore
/// marks exactly the affected sources (and their URL ancestors) stale — no
/// explicit invalidation step exists or is needed.
///
/// Only clean terminal outcomes (kOk / kNoSlices) are memoized: partial,
/// failed, and cancelled shards re-detect on the next run, matching the
/// checkpoint log's contract.
///
/// Thread-safe: Lookup takes a shared lock (called concurrently from pool
/// workers mid-round), Update an exclusive one (called from the framework's
/// single-threaded post-round fold).
class DetectionMemo {
 public:
  /// One memoized shard outcome. `slices` is the raw detector output
  /// (pre-consolidation): consolidation always re-runs against the current
  /// child slices, so a memo hit is exactly "skip the Detect call".
  struct Entry : ShardDetectResult {
    uint64_t fingerprint = 0;
  };

  /// Copies the entry for `url` into `out` iff one exists with a matching
  /// fingerprint. Returns false (and leaves `out` alone) otherwise.
  bool Lookup(const std::string& url, uint64_t fingerprint, Entry* out) const;

  /// Inserts or replaces the entry for `url`.
  void Update(const std::string& url, Entry entry);

  size_t size() const;

  /// The fingerprint a framework run computes for one shard: the memoized
  /// entry is reusable iff context, the normalized fact run, and the child
  /// seeds all match. Exposed so tests and the serve layer can pin the
  /// staleness contract.
  static uint64_t ShardFingerprint(
      uint64_t context, const std::vector<rdf::Triple>& facts,
      const std::vector<std::vector<PropertyPair>>& seeds);

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Per-source outcome of a framework run.
struct SourceReport {
  std::string url;
  SourceStatus status = SourceStatus::kOk;
  /// Detection attempts made (0 for kCancelled shards never picked up).
  size_t attempts = 0;
  /// Last error message; empty unless status == kFailed.
  std::string error;
};

/// Result of a framework run: the consolidated slice set across every web
/// source, each attributed to the finest URL granularity that won
/// consolidation, sorted by descending profit.
struct FrameworkResult {
  std::vector<DiscoveredSlice> slices;
  FrameworkStats stats;
  /// One report per shard the run planned (every URL that formed a shard,
  /// including synthesized parent URLs), sorted by URL.
  std::vector<SourceReport> sources;
  /// True iff any shard was cut short (kPartial or kCancelled): `slices` is
  /// a valid best-so-far set, not the full fixed point.
  bool partial = false;
};

/// Fingerprint binding a run to its inputs: seed, pipeline mode, detector
/// (options.detector_context) and corpus content — per source its URL and
/// fact ids, plus the dictionary's terms in id order, so equal fingerprints
/// mean the same facts under the same ids. O(facts + terms); only
/// checkpointed and dist runs compute it. The checkpoint ledger stores it
/// so a resume rejects another run's results, and the dist handshake
/// exchanges it so a coordinator rejects a worker that loaded a different
/// corpus or options (source ids name the same facts on both ends only
/// because of this check).
uint64_t ComputeRunFingerprint(const web::Corpus& corpus,
                               const FrameworkOptions& options);

/// The MIDAS highly-parallelizable framework (paper §III-B, Fig. 6).
///
/// Rounds proceed from the finest URL granularity upward. Each round:
///   Shard        — group (child source, exported slices) by parent URL;
///   Detect       — run the pluggable detector per shard, seeding its
///                  hierarchy with the children's exported slices;
///   Consolidate  — keep either a parent slice or the set of child slices
///                  covering the same content, whichever has higher profit
///                  (the per-source crawl term f_c·|T_W| differs across
///                  levels, which is what picks the right granularity).
///
/// Parallelism: shards within a round are independent and run on a thread
/// pool — the in-process stand-in for the paper's MapReduce deployment.
///
/// Each round takes its shards in URL order, and a shard only ever meets
/// its own children, so two web domains (web::UrlAncestry roots) never
/// interact: a run's result is the fold of runs over each domain's sources
/// — slices ranked together, reports merged by URL, counters summed.
class MidasFramework {
 public:
  /// `detector` must outlive the framework and be thread-safe.
  MidasFramework(const SliceDetector* detector, FrameworkOptions options = {});

  /// Runs slice discovery over the corpus against the knowledge base.
  FrameworkResult Run(const web::Corpus& corpus,
                      const rdf::KnowledgeBase& kb) const;

 private:
  const SliceDetector* detector_;
  FrameworkOptions options_;
};

}  // namespace core
}  // namespace midas

#endif  // MIDAS_CORE_FRAMEWORK_H_
