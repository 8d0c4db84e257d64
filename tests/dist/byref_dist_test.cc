// By-reference shard dispatch end to end: a fleet whose workers hold the
// run's columnar dump receives WorkAssignRef frames (record ranges, no
// inline terms) and must produce results bit-identical to the in-process
// framework AND to an inline-assignment fleet on the same corpus. A mixed
// fleet (one worker with the dump, one without) must also match, with the
// coordinator falling back to inline per worker. Worker-side: a ref
// assignment naming a different dump is rejected, never executed.

#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/test_dir.h"
#include "dist/dist_test_util.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/dist/channel.h"
#include "midas/dist/coordinator.h"
#include "midas/dist/wire.h"
#include "midas/dist/worker.h"
#include "midas/extract/columnar_io.h"
#include "midas/extract/extraction.h"
#include "midas/fault/fault.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/store/columnar.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace dist {
namespace {

using tests::Digest;
using tests::RunDigest;

constexpr double kThreshold = 0.7;

/// The FillWideCorpus shape as an extraction dump, source-grouped (so the
/// columnar save carries the index) with confidences straddling the
/// threshold — ranges must filter, not just slice.
extract::ExtractionDump MakeWideDump() {
  extract::ExtractionDump dump;
  dump.dict = std::make_shared<rdf::Dictionary>();
  int i = 0;
  for (int h = 0; h < 2; ++h) {
    for (int s = 0; s < 3; ++s) {
      for (int p = 0; p < 2; ++p) {
        const std::string url = "http://host" + std::to_string(h) +
                                ".com/sec" + std::to_string(s) + "/p" +
                                std::to_string(p) + ".htm";
        for (int e = 0; e < 4; ++e) {
          const std::string subj = "e" + std::to_string(h) + "_" +
                                   std::to_string(s) + "_" +
                                   std::to_string(p) + "_" + std::to_string(e);
          extract::ExtractedFact fact;
          fact.url = url;
          fact.triple = rdf::Triple(
              dump.dict->Intern(subj), dump.dict->Intern("cat"),
              dump.dict->Intern("kind" + std::to_string(s)));
          fact.confidence = 0.5 + 0.05 * (i++ % 10);  // 0.5 .. 0.95
          dump.facts.push_back(fact);
          if (e % 2 == 0) {
            extract::ExtractedFact origin;
            origin.url = url;
            origin.triple = rdf::Triple(
                dump.dict->Intern(subj), dump.dict->Intern("origin"),
                dump.dict->Intern("host" + std::to_string(h)));
            origin.confidence = 0.5 + 0.05 * (i++ % 10);
            dump.facts.push_back(origin);
          }
        }
      }
    }
  }
  return dump;
}

/// Per-run state loaded from the columnar file — fresh for every run (the
/// detector's thread pool must not exist before workers fork), identical
/// across runs (fresh-dictionary loads are deterministic).
struct Bundle {
  std::unique_ptr<store::ColumnarReader> reader;
  web::Corpus corpus;
  std::vector<rdf::TermId> remap;
  extract::SourceRangeCatalog catalog;
  std::unique_ptr<rdf::KnowledgeBase> kb;
  std::unique_ptr<core::MidasAlg> alg;
};

Status LoadBundle(const std::string& path, Bundle* b) {
  b->reader = std::make_unique<store::ColumnarReader>();
  store::ColumnarReadOptions read_options;
  read_options.lazy_verify = true;
  MIDAS_RETURN_IF_ERROR(b->reader->Open(path, read_options));
  extract::ColumnarLoadOptions load_options;
  load_options.threshold = kThreshold;
  MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpusFromReader(
      b->reader.get(), load_options, &b->corpus, &b->remap));
  MIDAS_RETURN_IF_ERROR(
      extract::BuildSourceRangeCatalog(b->reader.get(), b->corpus,
                                       &b->catalog));
  b->kb = std::make_unique<rdf::KnowledgeBase>(b->corpus.shared_dict());
  core::MidasOptions alg_options;
  alg_options.cost_model = core::CostModel::RunningExample();
  b->alg = std::make_unique<core::MidasAlg>(alg_options);
  return Status::OK();
}

core::FrameworkOptions BaseOptions() {
  core::FrameworkOptions fw;
  fw.use_hierarchy_rounds = true;
  fw.run_seed = 17;
  return fw;
}

struct DistRun {
  Status start_status = Status::OK();
  core::FrameworkResult result;
  DistCoordinator::Stats stats;
};

/// Mirrors DistHarness::RunDist over a loaded bundle. `worker_has_dump`
/// decides per forked worker (by fork order) whether it announces the dump.
DistRun RunDistOnBundle(Bundle* b, size_t num_workers, bool by_ref,
                        const std::function<bool(int)>& worker_has_dump) {
  core::FrameworkOptions fw = BaseOptions();
  const uint64_t fingerprint = core::ComputeRunFingerprint(b->corpus, fw);
  core::ShardDetectOptions detect;
  detect.source_deadline_ms = fw.source_deadline_ms;
  detect.max_retries = fw.max_retries;
  detect.retry_backoff_ms = fw.retry_backoff_ms;
  detect.run_seed = fw.run_seed;

  // Fork-order index in shared memory: worker_main runs in the child, so a
  // plain captured counter would never tick across processes.
  auto* next_worker = static_cast<int*>(
      ::mmap(nullptr, sizeof(int), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  *next_worker = 0;

  DistOptions dopts;
  dopts.num_workers = num_workers;
  dopts.fingerprint = fingerprint;
  if (by_ref) {
    dopts.corpus_hash = b->reader->content_fingerprint();
    dopts.ref_threshold = kThreshold;
    dopts.source_ranges = &b->catalog;
  }
  dopts.worker_main = [b, detect, fingerprint, worker_has_dump,
                       next_worker](int fd) {
    const int index = __sync_fetch_and_add(next_worker, 1);
    WorkerConfig config;
    config.detector = b->alg.get();
    config.kb = b->kb.get();
    config.dict = &b->corpus.dict();
    config.detect = detect;
    config.fingerprint = fingerprint;
    config.heartbeat_interval_ms = 0;
    if (worker_has_dump(index)) {
      config.corpus_reader = b->reader.get();
      config.corpus_remap = &b->remap;
    }
    (void)RunWorkerLoop(fd, config);
  };

  DistCoordinator coordinator(&b->corpus.dict(), std::move(dopts));
  DistRun run;
  run.start_status = coordinator.Start();
  if (run.start_status.ok()) {
    fw.executor = &coordinator;
    run.result = core::MidasFramework(b->alg.get(), fw).Run(b->corpus, *b->kb);
    coordinator.Shutdown();
  }
  run.stats = coordinator.stats();
  ::munmap(next_worker, sizeof(int));
  return run;
}

class ByRefDistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    col_path_ = midas::tests::TestDir() + "/dump.midascol";
    std::remove(col_path_.c_str());
    ASSERT_TRUE(extract::SaveColumnarDump(col_path_, MakeWideDump()).ok());
  }
  void TearDown() override { std::remove(col_path_.c_str()); }

  std::string col_path_;
};

TEST_F(ByRefDistTest, ByRefFleetBitIdenticalToInProcessAndInline) {
  // In-process baseline on the loaded corpus.
  RunDigest baseline;
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    ASSERT_TRUE(b.reader->has_source_index());
    core::FrameworkOptions fw = BaseOptions();
    baseline = Digest(core::MidasFramework(b.alg.get(), fw)
                          .Run(b.corpus, *b.kb));
  }

  // Inline fleet: workers hold the dump but the coordinator was not given
  // a catalog, so every assignment ships inline facts.
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    const DistRun run = RunDistOnBundle(&b, 2, /*by_ref=*/false,
                                        [](int) { return true; });
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_EQ(Digest(run.result), baseline);
    EXPECT_EQ(run.stats.ref_assigns, 0u);
    EXPECT_EQ(run.stats.worker_losses, 0u);
  }

  // By-ref fleet: every worker declared the dump, so every delivery goes
  // by reference — zero inline fact bytes on the wire.
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    const DistRun run = RunDistOnBundle(&b, 2, /*by_ref=*/true,
                                        [](int) { return true; });
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_EQ(Digest(run.result), baseline);
    EXPECT_GT(run.stats.ref_assigns, 0u);
    EXPECT_EQ(run.stats.ref_assigns,
              run.stats.assigns + run.stats.speculative_assigns);
    EXPECT_EQ(run.stats.worker_losses, 0u);
  }

  // Mixed fleet: worker 0 declared the dump, worker 1 did not. The
  // coordinator serves ref frames to one and inline to the other; results
  // stay bit-identical.
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    const DistRun run = RunDistOnBundle(&b, 2, /*by_ref=*/true,
                                        [](int index) { return index == 0; });
    ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
    EXPECT_EQ(Digest(run.result), baseline);
    EXPECT_GT(run.stats.ref_assigns, 0u);
    EXPECT_LT(run.stats.ref_assigns,
              run.stats.assigns + run.stats.speculative_assigns);
    EXPECT_EQ(run.stats.worker_losses, 0u);
  }
}

TEST_F(ByRefDistTest, AblationModeByRefBitIdentical) {
  RunDigest baseline;
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    core::FrameworkOptions fw = BaseOptions();
    fw.use_hierarchy_rounds = false;
    baseline = Digest(core::MidasFramework(b.alg.get(), fw)
                          .Run(b.corpus, *b.kb));
  }
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  core::FrameworkOptions fw = BaseOptions();
  fw.use_hierarchy_rounds = false;
  const uint64_t fingerprint = core::ComputeRunFingerprint(b.corpus, fw);
  core::ShardDetectOptions detect;
  detect.source_deadline_ms = fw.source_deadline_ms;
  detect.max_retries = fw.max_retries;
  detect.retry_backoff_ms = fw.retry_backoff_ms;
  detect.run_seed = fw.run_seed;
  DistOptions dopts;
  dopts.num_workers = 2;
  dopts.fingerprint = fingerprint;
  dopts.corpus_hash = b.reader->content_fingerprint();
  dopts.ref_threshold = kThreshold;
  dopts.source_ranges = &b.catalog;
  Bundle* bp = &b;
  dopts.worker_main = [bp, detect, fingerprint](int fd) {
    WorkerConfig config;
    config.detector = bp->alg.get();
    config.kb = bp->kb.get();
    config.dict = &bp->corpus.dict();
    config.detect = detect;
    config.fingerprint = fingerprint;
    config.heartbeat_interval_ms = 0;
    config.corpus_reader = bp->reader.get();
    config.corpus_remap = &bp->remap;
    (void)RunWorkerLoop(fd, config);
  };
  DistCoordinator coordinator(&b.corpus.dict(), std::move(dopts));
  ASSERT_TRUE(coordinator.Start().ok());
  fw.executor = &coordinator;
  const core::FrameworkResult result =
      core::MidasFramework(b.alg.get(), fw).Run(b.corpus, *b.kb);
  coordinator.Shutdown();
  EXPECT_EQ(Digest(result), baseline);
  EXPECT_GT(coordinator.stats().ref_assigns, 0u);
}

#ifdef MIDAS_FAULT_INJECTION
// Crash-matrix leg for by-reference dispatch: the seeded worker_crash site
// _exits workers mid-unit; re-assignment (possibly by-ref to one worker
// and inline to a respawned one) must heal the run bit-identically.
TEST_F(ByRefDistTest, SeededWorkerCrashHealsByRefBitIdentical) {
  RunDigest baseline;
  {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    core::FrameworkOptions fw = BaseOptions();
    baseline = Digest(core::MidasFramework(b.alg.get(), fw)
                          .Run(b.corpus, *b.kb));
  }
  fault::ScopedFaultSpec armed("site=worker_crash,rate=0.25,seed=5");
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  const DistRun run = RunDistOnBundle(&b, 2, /*by_ref=*/true,
                                      [](int) { return true; });
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
  EXPECT_GE(run.stats.reassigns, 1u);
  EXPECT_EQ(run.stats.units_failed, 0u);
  EXPECT_GT(run.stats.ref_assigns, 0u);
  fault::FaultInjector::Global().Disarm();
}
#endif  // MIDAS_FAULT_INJECTION

// Worker side of the stale-assignment guard: a WorkAssignRef naming a hash
// other than the dump the worker announced must kill the loop with
// Corruption — executing it would merge results from different bytes.
TEST_F(ByRefDistTest, MismatchedCorpusHashRejectsRefAssignment) {
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  core::ShardDetectOptions detect;
  detect.run_seed = 17;

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Status worker_status = Status::OK();
  std::thread worker([&] {
    WorkerConfig config;
    config.detector = b.alg.get();
    config.kb = b.kb.get();
    config.dict = &b.corpus.dict();
    config.detect = detect;
    config.fingerprint = 99;
    config.heartbeat_interval_ms = 0;
    config.corpus_reader = b.reader.get();
    config.corpus_remap = &b.remap;
    worker_status = RunWorkerLoop(sv[1], config);
  });

  FrameChannel channel(sv[0], "worker");
  ASSERT_TRUE(channel.SendMagic().ok());
  std::string payload, error;
  ASSERT_EQ(channel.WaitForFrame(5000, &payload, &error),
            FrameChannel::Read::kFrame);
  HelloMsg hello;
  ASSERT_TRUE(DecodeHello(payload, &hello).ok());
  EXPECT_EQ(hello.corpus_hash, b.reader->content_fingerprint());

  WorkAssignRefMsg ref;
  ref.unit = 0;
  ref.url = "http://host0.com";
  ref.corpus_hash = b.reader->content_fingerprint() + 1;  // not our dump
  ref.threshold = kThreshold;
  ref.ranges = {{0, 1}};
  ASSERT_TRUE(
      channel.WriteFrame(EncodeWorkAssignRef(ref, b.corpus.dict())).ok());

  // The worker refuses and exits; we observe EOF, never a WorkResult.
  const FrameChannel::Read read = channel.WaitForFrame(5000, &payload, &error);
  EXPECT_EQ(read, FrameChannel::Read::kEof);
  worker.join();
  EXPECT_FALSE(worker_status.ok());
}

}  // namespace
}  // namespace dist
}  // namespace midas
