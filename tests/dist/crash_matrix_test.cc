// Kill-a-worker crash matrix (ISSUE 8 satellite): SIGKILL worker k after m
// completed units, over a (k, m) grid — every cell must complete with
// slices and per-source reports bit-identical to an uninterrupted
// single-process baseline, with the losses visible in the reassignment
// counters. Also covers killing every worker, the seeded worker_crash
// fault site, exhausted re-assignments surfacing as kFailed, and a
// killed-then-restarted coordinator resuming from the checkpoint ledger
// without re-detecting.

#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/test_dir.h"
#include "dist/dist_test_util.h"
#include "midas/core/framework.h"
#include "midas/dist/coordinator.h"
#include "midas/fault/cancel.h"
#include "midas/fault/fault.h"
#include "midas/store/checkpoint.h"

namespace midas {
namespace dist {
namespace {

using tests::Digest;
using tests::DistHarness;
using tests::RunDigest;

core::FrameworkOptions BaseOptions() {
  core::FrameworkOptions fw;
  fw.use_hierarchy_rounds = true;
  fw.run_seed = 23;
  return fw;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { baseline_ = Digest(DistHarness().RunBaseline(BaseOptions())); }
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  RunDigest baseline_;
};

TEST_F(CrashMatrixTest, KillWorkerKAfterMUnitsCompletesBitIdentical) {
  for (size_t k = 0; k < 2; ++k) {
    for (size_t m = 1; m <= 4; ++m) {
      DistHarness harness;
      DistOptions dopts;
      dopts.num_workers = 2;
      dopts.poll_interval_ms = 20;
      bool killed = false;
      const DistHarness::DistRun run = harness.RunDist(
          BaseOptions(), dopts,
          [&killed, k, m](DistCoordinator& coordinator, size_t units_done) {
            if (killed || units_done != m) return;
            const std::vector<pid_t> pids = coordinator.worker_pids();
            if (pids.empty()) return;
            ::kill(pids[k % pids.size()], SIGKILL);
            killed = true;
          });
      ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
      EXPECT_TRUE(killed) << "k=" << k << " m=" << m;
      EXPECT_EQ(Digest(run.result), baseline_) << "k=" << k << " m=" << m;
      EXPECT_GE(run.stats.worker_losses, 1u) << "k=" << k << " m=" << m;
      EXPECT_GE(run.stats.respawns, 1u) << "k=" << k << " m=" << m;
      // Every loss of a busy worker re-queued its unit; the extra assigns
      // are exactly the re-assignments.
      EXPECT_EQ(run.stats.assigns,
                run.stats.results + run.stats.reassigns)
          << "k=" << k << " m=" << m;
      EXPECT_EQ(run.stats.units_failed, 0u);
    }
  }
}

TEST_F(CrashMatrixTest, KillingEveryWorkerStillCompletes) {
  DistHarness harness;
  DistOptions dopts;
  dopts.num_workers = 2;
  dopts.poll_interval_ms = 20;
  size_t kills = 0;
  std::set<pid_t> killed;
  const DistHarness::DistRun run = harness.RunDist(
      BaseOptions(), dopts,
      [&kills, &killed](DistCoordinator& coordinator, size_t /*units_done*/) {
        // After each completion, kill a worker the run has not killed yet,
        // until three have died — more workers than the pool holds, so
        // respawns die too. worker_pids() still lists a killed worker
        // until the coordinator notices the loss, so a kill only counts
        // when it hits a fresh pid; a completion that finds none waits for
        // the next.
        if (kills >= 3) return;
        const std::vector<pid_t> pids = coordinator.worker_pids();
        for (size_t j = 0; j < pids.size(); ++j) {
          const pid_t pid = pids[(kills + j) % pids.size()];
          if (killed.count(pid) != 0) continue;
          ::kill(pid, SIGKILL);
          killed.insert(pid);
          ++kills;
          return;
        }
      });
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(kills, 3u);
  EXPECT_EQ(Digest(run.result), baseline_);
  EXPECT_GE(run.stats.worker_losses, 3u);
  EXPECT_GE(run.stats.respawns, 3u);
  EXPECT_EQ(run.stats.units_failed, 0u);
}

#ifdef MIDAS_FAULT_INJECTION
// The worker_crash site _exits a worker mid-unit, keyed (url, assignment):
// the crash is deterministic per unit and does NOT re-fire on the bumped
// re-assignment, so the run heals and stays bit-identical.
TEST_F(CrashMatrixTest, SeededWorkerCrashSiteHealsBitIdentical) {
  // Seed chosen so several first assignments crash but no unit crashes on
  // all three of its assignments (which would legitimately fail it).
  fault::ScopedFaultSpec armed("site=worker_crash,rate=0.25,seed=5");
  DistHarness harness;
  DistOptions dopts;
  dopts.num_workers = 2;
  dopts.poll_interval_ms = 20;
  const DistHarness::DistRun run = harness.RunDist(BaseOptions(), dopts);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline_);
  // Every crash kills a worker mid-unit: a loss with a reassign. (Losses
  // can exceed reassigns when an assign races a not-yet-noticed death.)
  EXPECT_GE(run.stats.reassigns, 1u);
  EXPECT_GE(run.stats.worker_losses, run.stats.reassigns);
  EXPECT_EQ(run.stats.units_failed, 0u);
}

// With the crash firing on EVERY assignment of every unit, re-assignment
// budgets exhaust: units surface as kFailed (children's slices survive,
// like an in-process shard whose every attempt threw) — the run still
// terminates instead of thrashing respawns forever.
TEST_F(CrashMatrixTest, PersistentCrashesExhaustAssignmentsAsFailures) {
  fault::ScopedFaultSpec armed("site=worker_crash,rate=1,seed=1");
  DistHarness harness([](web::Corpus* corpus) {
    for (int i = 0; i < 5; ++i) {
      corpus->AddFactRaw("http://solo.com/p.htm", "e" + std::to_string(i),
                         "cat", "rocket");
    }
  });
  core::FrameworkOptions fw;
  fw.use_hierarchy_rounds = false;
  DistOptions dopts;
  dopts.num_workers = 1;
  dopts.poll_interval_ms = 20;
  dopts.max_unit_assignments = 2;
  dopts.worker_respawn_limit = 4;
  const DistHarness::DistRun run = harness.RunDist(fw, dopts);
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_GE(run.stats.units_failed, 1u);
  ASSERT_EQ(run.result.sources.size(), 1u);
  EXPECT_EQ(run.result.sources[0].status, core::SourceStatus::kFailed);
}
#endif  // MIDAS_FAULT_INJECTION

// A coordinator that dies mid-run and is restarted with --resume picks the
// completed shards out of the checkpoint ledger instead of re-detecting
// them. Modeled by cancelling the run after two applied results (the
// cancelled coordinator abandons the rest, exactly like a kill at that
// point, but with the ledger flushed) and running a fresh coordinator over
// the same checkpoint dir.
TEST_F(CrashMatrixTest, RestartedCoordinatorResumesFromLedger) {
  const std::string dir = midas::tests::TestDir();
  const std::string ckpt = dir + "/" + store::kCheckpointFileName;
  std::remove(ckpt.c_str());

  size_t first_done = 0;
  {
    DistHarness harness;
    fault::CancelToken cancel;
    core::FrameworkOptions fw = BaseOptions();
    fw.checkpoint_dir = dir;
    fw.cancel = &cancel;
    DistOptions dopts;
    dopts.num_workers = 2;
    dopts.poll_interval_ms = 20;
    const DistHarness::DistRun run = harness.RunDist(
        fw, dopts,
        [&cancel, &first_done](DistCoordinator&, size_t units_done) {
          first_done = units_done;
          if (units_done >= 2) cancel.Cancel();
        });
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_TRUE(run.result.partial);
  }
  ASSERT_GE(first_done, 2u);

  {
    DistHarness harness;
    core::FrameworkOptions fw = BaseOptions();
    fw.checkpoint_dir = dir;
    fw.resume = true;
    DistOptions dopts;
    dopts.num_workers = 2;
    dopts.poll_interval_ms = 20;
    const DistHarness::DistRun run = harness.RunDist(fw, dopts);
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_EQ(Digest(run.result), baseline_);
    // The ledgered shards were restored, not re-assigned to workers.
    EXPECT_GE(run.result.stats.sources_resumed, first_done);
    EXPECT_EQ(run.stats.assigns + run.result.stats.sources_resumed,
              run.result.stats.shards_processed);
  }
  std::remove(ckpt.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace dist
}  // namespace midas
