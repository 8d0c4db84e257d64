#ifndef MIDAS_DIST_COORDINATOR_H_
#define MIDAS_DIST_COORDINATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "midas/core/framework.h"
#include "midas/dist/channel.h"
#include "midas/rdf/dictionary.h"
#include "midas/util/status.h"

namespace midas {
namespace dist {

/// Multi-process execution for the MIDAS framework (the repo's stand-in for
/// the paper's MapReduce deployment, one level up from the thread pool).
///
/// DistCoordinator is a core::ShardExecutor: the framework keeps ownership
/// of sharding, normalization, the checkpoint ledger, memoization, and the
/// post-round merge, and delegates each round's prepared tasks here. The
/// coordinator hands every task to a worker process as one WorkAssign over
/// a unix-domain or TCP socket — naming the shard by its corpus source ids,
/// never shipping facts — and maps WorkResults back — so a distributed
/// run flows through the exact consolidate/merge/report code a
/// single-process run does, which is what the bit-identity tests pin.
///
/// Failure contract:
///  - A worker that dies (EOF, ECONNRESET, torn frame, failed write) loses
///    its in-flight unit; the unit is re-queued with its assignment count
///    bumped. After max_unit_assignments losses the unit is reported
///    kFailed ("worker lost"), surviving = its child slices (exactly what
///    the in-process path yields when every detect attempt fails).
///  - A worker that goes *silent* (no frame for worker_liveness_ms over a
///    network that cannot deliver an EOF — a half-open TCP connection, a
///    SIGSTOPped process, a partition) is declared lost the same way.
///    Workers heartbeat during unit execution, so a long detection is not
///    mistaken for death.
///  - A unit is in flight on at most one worker. A lost worker's channel
///    is closed at once, so no late result of a requeued unit can arrive;
///    a WorkResult whose (unit, assignment) echo differs from what its
///    worker holds is a protocol violation and loses the worker.
///  - Self-forked workers are respawned (up to worker_respawn_limit) so a
///    crash matrix that kills every worker still completes. External
///    workers may join or REjoin mid-round (their Hello fingerprint is
///    validated like any other); admissions after Start() share the same
///    respawn budget.
///  - Completed units are never re-run: results are applied by unit index,
///    and the framework checkpoints them into the ledger as usual, so a
///    killed-then-restarted *coordinator* resumes from the ledger without
///    re-detecting (the framework's existing resume path).
struct DistOptions {
  /// Self-fork mode: fork this many workers over socketpair(2). Each child
  /// runs worker_main(fd) and must _exit. Zero = external mode.
  size_t num_workers = 0;
  std::function<void(int fd)> worker_main;

  /// External mode: accept workers on this address until min_workers have
  /// said Hello (within accept_timeout_ms). Workers that connect later
  /// still join the pool mid-run. The address grammar auto-detects the
  /// transport: "host:port" (e.g. "127.0.0.1:7070", port 0 = ephemeral,
  /// see DistCoordinator::listen_port) is TCP, anything else a unix-socket
  /// path (dist::IsTcpAddress).
  std::string listen_path;
  size_t min_workers = 1;
  int accept_timeout_ms = 30'000;

  /// Expected Hello fingerprint (core::ComputeRunFingerprint). Nonzero:
  /// a worker announcing a different fingerprint is rejected — it loaded a
  /// different corpus/seed and its results could not be bit-identical.
  uint64_t fingerprint = 0;

  /// Re-assignments before a unit is abandoned as kFailed.
  uint32_t max_unit_assignments = 3;

  /// Self-fork mode: replacement workers forked after losses. External
  /// mode shares the same budget for workers admitted after Start().
  size_t worker_respawn_limit = 8;

  /// Poll granularity of the round loop (also bounds how often heartbeats
  /// and respawns are serviced).
  int poll_interval_ms = 200;

  /// Liveness deadline: a worker from which no frame (heartbeat or
  /// otherwise) arrives for this long is declared lost and its unit
  /// re-queued. 0 disables the deadline — losses are then only detected by
  /// socket EOF/error, which a half-open TCP connection never delivers.
  /// Must comfortably exceed the workers' heartbeat interval.
  int worker_liveness_ms = 0;

  /// Test hook, called after each WorkResult is applied with the total
  /// number of completed units this round. The kill-a-worker crash matrix
  /// uses it to SIGKILL a worker after exactly m completed units.
  std::function<void(size_t units_done)> on_unit_done;
};

class DistCoordinator : public core::ShardExecutor {
 public:
  /// `dict` is the run's dictionary (shared with corpus + KB); must outlive
  /// the coordinator.
  DistCoordinator(const rdf::Dictionary* dict, DistOptions options);
  ~DistCoordinator() override;

  /// External mode: binds the listen socket without waiting for workers.
  /// Idempotent; Start() calls it. Tests bind first, read listen_port(),
  /// launch workers, then Start().
  Status Listen();

  /// Forks workers (self-fork mode) or binds listen_path and waits for
  /// min_workers Hellos (external mode).
  Status Start();

  /// The bound TCP port after Listen()/Start() (use with listen_path
  /// "host:0" for an ephemeral port); 0 for unix transports.
  uint16_t listen_port() const { return listen_port_; }

  /// Sends Shutdown to every live worker, closes channels, reaps children.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  void ExecuteRound(const core::ShardExecutionContext& ctx,
                    std::vector<core::ShardTask>* tasks,
                    std::vector<core::ShardTaskResult>* results) override;

  /// Live self-forked worker pids, in worker order (crash-matrix tests
  /// pick a victim from here).
  std::vector<pid_t> worker_pids() const;

  size_t live_workers() const;

  /// Mirror of the dist.* counters for direct assertions.
  struct Stats {
    uint64_t assigns = 0;       // deliveries of a unit to a worker
    uint64_t results = 0;       // applied results
    uint64_t reassigns = 0;     // re-queues after a delivered unit's loss
    uint64_t worker_losses = 0; // all losses (EOF, error, liveness, ...)
    uint64_t workers_lost = 0;  // the liveness-deadline subset of losses
    uint64_t rejoins = 0;       // external workers admitted after Start()
    uint64_t respawns = 0;
    uint64_t units_failed = 0;
    uint64_t heartbeats = 0;
    uint64_t rejected_workers = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Worker {
    FrameChannel channel;
    pid_t pid = -1;  // -1: external worker
    bool hello_ok = false;
    int64_t inflight_unit = -1;  // -1: idle
    uint32_t inflight_assignment = 0;
    int64_t last_heard_ms = 0;
    size_t id = 0;
  };

  Status ForkWorker();
  Status AcceptPending(std::string* error);
  /// One poll sweep: accepts pending external workers, drains readable
  /// channels, dispatches their frames. tasks/results may be null outside a
  /// round (Start's Hello wait) — WorkResults are a protocol violation then.
  void PollOnce(std::vector<core::ShardTask>* tasks,
                std::vector<core::ShardTaskResult>* results, int timeout_ms);
  /// Handles one decoded frame from workers_[widx]. Returns false when the
  /// worker was lost/rejected (stop draining its buffer).
  bool DispatchFrame(size_t widx, const std::string& payload,
                     std::vector<core::ShardTask>* tasks,
                     std::vector<core::ShardTaskResult>* results);
  /// Sends Shutdown and severs a worker the pool must not keep (wrong
  /// fingerprint/protocol, admission budget exhausted).
  void RejectWorker(size_t widx, const std::string& why);
  /// Marks a worker dead: requeues its in-flight unit, reaps the child,
  /// respawns a replacement when allowed.
  void LoseWorker(size_t widx, const std::string& why);
  /// Declares silent workers lost once their liveness deadline passes.
  void SweepLiveness();
  /// Encodes and sends `unit` to `worker` under `assignment`. On success
  /// records the in-flight state; on failure loses the worker (without
  /// requeueing `unit` — the caller owns that decision) and returns false.
  bool SendAssign(size_t widx, size_t unit, uint32_t assignment,
                  std::vector<core::ShardTask>* tasks);
  void FailUnit(size_t unit, const std::string& why,
                std::vector<core::ShardTask>* tasks,
                std::vector<core::ShardTaskResult>* results);

  const rdf::Dictionary* dict_;
  DistOptions options_;
  // unique_ptr slots: Worker objects stay address-stable while respawns
  // push_back into the vector mid-sweep.
  std::vector<std::unique_ptr<Worker>> workers_;
  int listen_fd_ = -1;
  Transport transport_ = Transport::kUnix;
  uint16_t listen_port_ = 0;
  size_t next_worker_id_ = 0;
  size_t respawns_used_ = 0;
  bool started_ = false;
  bool accepting_midrun_ = false;  // Start() completed; Hellos now rejoin
  Stats stats_;

  // Round-scoped state (valid only inside ExecuteRound).
  std::vector<size_t> queue_;               // units awaiting (re-)assignment
  std::vector<uint32_t> unit_assignment_;   // times each unit was handed out
  size_t units_done_ = 0;
  size_t units_remaining_ = 0;
};

}  // namespace dist
}  // namespace midas

#endif  // MIDAS_DIST_COORDINATOR_H_
