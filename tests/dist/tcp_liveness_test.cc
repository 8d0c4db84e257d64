// End-to-end robustness tests for midas::dist over localhost TCP: the crash
// matrix re-run through a real network transport, half-open connections
// hitting the liveness deadline, in-execution heartbeats keeping long units
// alive, mid-round worker rejoin, and a partitioned worker being declared
// lost while exiting nonzero on the severed connection. Every completing run
// must be bit-identical to the in-process baseline.
//
// Unlike the fork-mode suites, workers here are TEST-forked children that
// ConnectTcp to the coordinator (the coordinator sees pid -1, exactly like a
// worker on another machine), so the test owns launching, signalling, and
// reaping them.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "midas/core/framework.h"
#include "midas/dist/channel.h"
#include "midas/dist/coordinator.h"
#include "midas/dist/net.h"
#include "midas/dist/worker.h"
#include "midas/fault/fault.h"
#include "dist/dist_test_util.h"

namespace midas {
namespace dist {
namespace {

/// Waits for `pid` and folds the status: exit code, or 128 + signal.
int Reap(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// A coordinator-side view of a localhost-TCP worker fleet. Launch() forks a
/// child that connects to `port` and runs the worker loop until Shutdown
/// (exit 0), coordinator loss (exit 1), or a failed connect (exit 3) — the
/// nonzero exits are themselves under test. `spec` arms a fault spec in the
/// CHILD only ("" inherits whatever the parent had armed at fork time).
struct TcpCluster {
  tests::DistHarness* harness = nullptr;
  uint16_t port = 0;
  uint64_t fingerprint = 0;
  core::ShardDetectOptions detect;
  int heartbeat_ms = 0;
  std::vector<pid_t> pids;

  pid_t Launch(const std::string& spec = "") {
    const pid_t pid = ::fork();
    if (pid != 0) {
      if (pid > 0) pids.push_back(pid);
      return pid;
    }
    if (!spec.empty() &&
        !fault::FaultInjector::Global().Configure(spec).ok()) {
      ::_exit(4);
    }
    const StatusOr<int> fd =
        ConnectTcp("127.0.0.1:" + std::to_string(port), 5000);
    if (!fd.ok()) ::_exit(3);
    WorkerConfig config;
    config.corpus = &harness->corpus();
    config.detector = harness->alg();
    config.kb = &harness->kb();
    config.detect = detect;
    config.fingerprint = fingerprint;
    config.heartbeat_interval_ms = heartbeat_ms;
    config.transport = Transport::kTcp;
    ::_exit(RunWorkerLoop(*fd, config).ok() ? 0 : 1);
  }
};

struct TcpRun {
  Status start_status = Status::OK();
  core::FrameworkResult result;
  DistCoordinator::Stats stats;
};

/// External-mode dist run over 127.0.0.1: binds an ephemeral port, forks
/// `num_workers` children (fork happens BEFORE the framework spins up any
/// threads), waits for `min_workers` Hellos, then runs the framework.
/// `specs[i]` is worker i's child-side fault spec. `on_unit` is the
/// crash-matrix hook. The caller reaps cluster->pids (including workers
/// launched from inside on_unit).
TcpRun RunTcpDist(TcpCluster* cluster, core::FrameworkOptions fw,
                  DistOptions dopts, size_t num_workers, size_t min_workers,
                  const std::vector<std::string>& specs, int heartbeat_ms,
                  const std::function<void(DistCoordinator&, size_t)>&
                      on_unit = nullptr) {
  tests::DistHarness& h = *cluster->harness;
  cluster->fingerprint = core::ComputeRunFingerprint(h.corpus(), fw);
  cluster->detect.source_deadline_ms = fw.source_deadline_ms;
  cluster->detect.max_retries = fw.max_retries;
  cluster->detect.retry_backoff_ms = fw.retry_backoff_ms;
  cluster->detect.run_seed = fw.run_seed;
  cluster->heartbeat_ms = heartbeat_ms;
  dopts.fingerprint = cluster->fingerprint;
  dopts.listen_path = "127.0.0.1:0";
  dopts.min_workers = min_workers;
  DistCoordinator* raw = nullptr;
  if (on_unit) {
    dopts.on_unit_done = [&raw, on_unit](size_t n) { on_unit(*raw, n); };
  }
  DistCoordinator coordinator(h.dict(), std::move(dopts));
  raw = &coordinator;
  TcpRun run;
  run.start_status = coordinator.Listen();
  if (!run.start_status.ok()) return run;
  cluster->port = coordinator.listen_port();
  EXPECT_GT(cluster->port, 0);
  for (size_t i = 0; i < num_workers; ++i) {
    cluster->Launch(i < specs.size() ? specs[i] : "");
  }
  run.start_status = coordinator.Start();
  if (!run.start_status.ok()) {
    run.stats = coordinator.stats();
    return run;
  }
  fw.executor = &coordinator;
  run.result = core::MidasFramework(h.alg(), fw).Run(h.corpus(), h.kb());
  coordinator.Shutdown();
  run.stats = coordinator.stats();
  return run;
}

TEST(TcpLivenessTest, CleanTcpRunIsBitIdenticalToInProcess) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  tests::DistHarness h;
  TcpCluster cluster;
  cluster.harness = &h;
  DistOptions dopts;
  dopts.worker_liveness_ms = 2000;
  const TcpRun run = RunTcpDist(&cluster, fw, dopts, 2, 2, {}, 50);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(tests::Digest(run.result), baseline);
  EXPECT_EQ(run.stats.worker_losses, 0u);
  EXPECT_EQ(run.stats.workers_lost, 0u);
  EXPECT_EQ(run.stats.rejoins, 0u);
  EXPECT_EQ(run.stats.assigns, run.stats.results);
  for (const pid_t pid : cluster.pids) EXPECT_EQ(Reap(pid), 0);
}

// The fork-mode crash matrix, re-run over a real TCP transport: a worker
// SIGKILLed mid-run (at different points) registers as a loss, its unit is
// re-assigned, and the completed run stays bit-identical.
TEST(TcpLivenessTest, SigkilledWorkerOverTcpCrashMatrix) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  for (const size_t kill_after : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    tests::DistHarness h;
    TcpCluster cluster;
    cluster.harness = &h;
    DistOptions dopts;
    dopts.worker_liveness_ms = 2000;
    bool killed = false;
    const TcpRun run = RunTcpDist(
        &cluster, fw, dopts, 2, 2, {}, 50,
        [&cluster, &killed, kill_after](DistCoordinator&, size_t n) {
          if (!killed && n >= kill_after) {
            killed = true;
            ::kill(cluster.pids[0], SIGKILL);
          }
        });
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_TRUE(killed);
    EXPECT_EQ(tests::Digest(run.result), baseline);
    EXPECT_GE(run.stats.worker_losses, 1u);
    EXPECT_EQ(run.stats.assigns, run.stats.results + run.stats.reassigns);
    EXPECT_EQ(Reap(cluster.pids[0]), 128 + SIGKILL);
    EXPECT_EQ(Reap(cluster.pids[1]), 0);
  }
}

// A SIGSTOPped worker is the half-open case EOF can never detect: the
// socket stays open but no frames (not even heartbeats) arrive. Only the
// liveness deadline can reclaim its unit — dist.workers_lost is that
// deadline's own counter, distinct from EOF losses.
TEST(TcpLivenessTest, HalfOpenWorkerHitsLivenessDeadline) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  tests::DistHarness h;
  TcpCluster cluster;
  cluster.harness = &h;
  DistOptions dopts;
  dopts.worker_liveness_ms = 700;
  bool stopped = false;
  const TcpRun run =
      RunTcpDist(&cluster, fw, dopts, 2, 2, {}, 50,
                 [&cluster, &stopped](DistCoordinator&, size_t n) {
                   if (!stopped && n >= 1) {
                     stopped = true;
                     ::kill(cluster.pids[0], SIGSTOP);
                   }
                 });
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(tests::Digest(run.result), baseline);
  EXPECT_GE(run.stats.workers_lost, 1u);
  EXPECT_GE(run.stats.worker_losses, run.stats.workers_lost);
  EXPECT_EQ(run.stats.assigns, run.stats.results + run.stats.reassigns);
  // The frozen child never sees the severed socket; unfreeze and kill it.
  ::kill(cluster.pids[0], SIGCONT);
  ::kill(cluster.pids[0], SIGKILL);
  (void)Reap(cluster.pids[0]);
  EXPECT_EQ(Reap(cluster.pids[1]), 0);
}

// A worker that dies mid-run can be REPLACED: a fresh process connecting to
// the same port is admitted mid-round (fingerprint re-checked, counted in
// dist.rejoins against the respawn budget) and the round completes on it.
TEST(TcpLivenessTest, RejoiningWorkerIsAdmittedMidRound) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  tests::DistHarness h;
  TcpCluster cluster;
  cluster.harness = &h;
  DistOptions dopts;
  dopts.worker_liveness_ms = 2000;
  bool replaced = false;
  const TcpRun run = RunTcpDist(
      &cluster, fw, dopts, 1, 1, {}, 50,
      [&cluster, &replaced](DistCoordinator&, size_t n) {
        if (!replaced && n >= 1) {
          replaced = true;
          // Kill the fleet's only worker, then stand up its replacement —
          // the coordinator must hold the round open and admit it.
          ::kill(cluster.pids[0], SIGKILL);
          cluster.Launch();
        }
      });
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_TRUE(replaced);
  EXPECT_EQ(tests::Digest(run.result), baseline);
  EXPECT_GE(run.stats.worker_losses, 1u);
  EXPECT_GE(run.stats.rejoins, 1u);
  EXPECT_EQ(run.stats.assigns, run.stats.results + run.stats.reassigns);
  EXPECT_EQ(Reap(cluster.pids[0]), 128 + SIGKILL);
  EXPECT_EQ(Reap(cluster.pids[1]), 0);
}

#ifdef MIDAS_FAULT_INJECTION

// Units can legitimately run longer than the liveness deadline. Workers
// heartbeat DURING execution (a background beater thread), so a slow unit
// must not read as a dead worker: zero losses, bit-identical result. This
// is also the deterministic heartbeat check — each 800 ms unit pumps ~16
// beats at a 50 ms cadence.
TEST(TcpLivenessTest, InExecutionHeartbeatsKeepSlowUnitsAlive) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  tests::DistHarness h;
  TcpCluster cluster;
  cluster.harness = &h;
  DistOptions dopts;
  dopts.worker_liveness_ms = 400;
  // Armed BEFORE the children fork, so they inherit it: every unit sleeps
  // twice the liveness deadline inside the worker.
  fault::ScopedFaultSpec armed("site=slow_shard,rate=1,seed=1,delay_ms=800");
  const TcpRun run = RunTcpDist(&cluster, fw, dopts, 2, 2, {}, 50);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(tests::Digest(run.result), baseline);
  EXPECT_EQ(run.stats.workers_lost, 0u);
  EXPECT_EQ(run.stats.worker_losses, 0u);
  EXPECT_GT(run.stats.heartbeats, 0u);
  for (const pid_t pid : cluster.pids) EXPECT_EQ(Reap(pid), 0);
}

// A worker behind a partition from its very first frame: its Hello is
// swallowed, so it joins the accept pool but never goes live. The liveness
// deadline reclaims it (dist.workers_lost), the run completes on the
// healthy worker, and the partitioned worker exits NONZERO when it finds
// its connection severed without a Shutdown frame.
TEST(TcpLivenessTest, PartitionedWorkerIsLostAndExitsNonzero) {
  core::FrameworkOptions fw;
  tests::RunDigest baseline;
  {
    tests::DistHarness h;
    baseline = tests::Digest(h.RunBaseline(fw));
  }
  tests::DistHarness h;
  TcpCluster cluster;
  cluster.harness = &h;
  DistOptions dopts;
  dopts.worker_liveness_ms = 500;
  // The healthy worker inherits this (spec "") and plods at 300 ms per
  // unit, keeping the round open well past the liveness deadline; the
  // partitioned worker's Configure REPLACES it with the outage site.
  fault::ScopedFaultSpec armed("site=slow_shard,rate=1,seed=1,delay_ms=300");
  // min_workers = 1: only the healthy worker can ever say Hello.
  const TcpRun run = RunTcpDist(
      &cluster, fw, dopts, 2, 1,
      {"site=net_partition,rate=1,seed=3,delay_ms=30000,max_fires=1", ""},
      50);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(tests::Digest(run.result), baseline);
  EXPECT_GE(run.stats.workers_lost, 1u);
  // Coordinator loss without Shutdown is an IoError exit, not success.
  EXPECT_EQ(Reap(cluster.pids[0]), 1);
  EXPECT_EQ(Reap(cluster.pids[1]), 0);
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace dist
}  // namespace midas
