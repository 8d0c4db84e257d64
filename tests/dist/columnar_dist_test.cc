// Dist runs over a corpus loaded from a columnar dump: shards are named by
// corpus source id, and each worker rebuilds the facts from its own copy
// of the corpus. A seeded-dictionary load, the per-source ablation and a
// seeded worker_crash must all stay bit-identical to the in-process
// framework. The source ids the framework hands an executor must name
// exactly the task's facts, and a worker must refuse an assignment its
// corpus cannot serve with Corruption, never execute it, as it refuses a
// Shutdown frame with trailing bytes.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace dist {
namespace {

using tests::Digest;
using tests::RunDigest;

constexpr double kThreshold = 0.7;

/// The FillWideCorpus shape as an extraction dump, source-grouped, with
/// confidences straddling the threshold (the load must filter, and
/// duplicate facts across pages must be deduplicated per shard).
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
/// across runs (loads are deterministic). The dictionary is seeded with
/// terms the file does not hold, so file codes and TermIds differ.
struct Bundle {
  web::Corpus corpus;
  std::unique_ptr<rdf::KnowledgeBase> kb;
  std::unique_ptr<core::MidasAlg> alg;
};

Status LoadBundle(const std::string& path, Bundle* b) {
  auto dict = std::make_shared<rdf::Dictionary>();
  dict->Intern("seed/kb-only-term");
  dict->Intern("seed/another");
  MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpus(
      path, kThreshold, std::move(dict), &b->corpus, nullptr));
  b->kb = std::make_unique<rdf::KnowledgeBase>(b->corpus.shared_dict());
  core::MidasOptions alg_options;
  alg_options.cost_model = core::CostModel::RunningExample();
  b->alg = std::make_unique<core::MidasAlg>(alg_options);
  return Status::OK();
}

core::FrameworkOptions BaseOptions(bool hierarchy = true) {
  core::FrameworkOptions fw;
  fw.use_hierarchy_rounds = hierarchy;
  fw.run_seed = 17;
  return fw;
}

struct DistRun {
  Status start_status = Status::OK();
  core::FrameworkResult result;
  DistCoordinator::Stats stats;
};

/// Mirrors DistHarness::RunDist over a loaded bundle.
DistRun RunDistOnBundle(Bundle* b, size_t num_workers,
                        core::FrameworkOptions fw) {
  const uint64_t fingerprint = core::ComputeRunFingerprint(b->corpus, fw);
  core::ShardDetectOptions detect;
  detect.source_deadline_ms = fw.source_deadline_ms;
  detect.max_retries = fw.max_retries;
  detect.retry_backoff_ms = fw.retry_backoff_ms;
  detect.run_seed = fw.run_seed;

  DistOptions dopts;
  dopts.num_workers = num_workers;
  dopts.fingerprint = fingerprint;
  dopts.worker_main = [b, detect, fingerprint](int fd) {
    WorkerConfig config;
    config.corpus = &b->corpus;
    config.detector = b->alg.get();
    config.kb = b->kb.get();
    config.detect = detect;
    config.fingerprint = fingerprint;
    config.heartbeat_interval_ms = 0;
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
  return run;
}

/// Records, for every task an executor is handed, whether its source ids
/// name exactly its facts, then runs the round in process.
class SourceIdCheckingExecutor : public core::ShardExecutor {
 public:
  explicit SourceIdCheckingExecutor(const web::Corpus* corpus)
      : corpus_(corpus) {}

  void ExecuteRound(const core::ShardExecutionContext& ctx,
                    std::vector<core::ShardTask>* tasks,
                    std::vector<core::ShardTaskResult>* results) override {
    const auto& sources = corpus_->sources();
    for (const core::ShardTask& task : *tasks) {
      if (task.facts == nullptr) continue;
      ++checked_;
      ASSERT_FALSE(task.source_ids.empty()) << task.url;
      for (const uint32_t id : task.source_ids) {
        ASSERT_LT(id, sources.size()) << task.url;
      }
      if (!task.consolidate) {
        // Ablation: one source, its fact list as is.
        ASSERT_EQ(task.source_ids.size(), 1u) << task.url;
        EXPECT_EQ(*task.facts, sources[task.source_ids[0]].facts) << task.url;
        continue;
      }
      // Hierarchy: the sorted, deduplicated union of the named sources.
      std::vector<rdf::Triple> expected;
      for (const uint32_t id : task.source_ids) {
        expected.insert(expected.end(), sources[id].facts.begin(),
                        sources[id].facts.end());
      }
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      EXPECT_EQ(*task.facts, expected) << task.url;
    }
    inner_.ExecuteRound(ctx, tasks, results);
  }

  size_t checked() const { return checked_; }

 private:
  const web::Corpus* corpus_;
  core::InProcessShardExecutor inner_;
  size_t checked_ = 0;
};

class ColumnarDistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    col_path_ = midas::tests::TestDir() + "/dump.midascol";
    std::remove(col_path_.c_str());
    ASSERT_TRUE(extract::SaveColumnarDump(col_path_, MakeWideDump()).ok());
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    std::remove(col_path_.c_str());
  }

  RunDigest Baseline(bool hierarchy = true) {
    Bundle b;
    EXPECT_TRUE(LoadBundle(col_path_, &b).ok());
    return Digest(core::MidasFramework(b.alg.get(), BaseOptions(hierarchy))
                      .Run(b.corpus, *b.kb));
  }

  /// Starts a worker loop on one end of a socketpair and returns the
  /// coordinator end, Hello consumed.
  void StartWorker(Bundle* b, std::thread* worker, Status* worker_status,
                   FrameChannel* channel) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    *worker = std::thread([b, fd = sv[1], worker_status] {
      WorkerConfig config;
      config.corpus = &b->corpus;
      config.detector = b->alg.get();
      config.kb = b->kb.get();
      config.detect.run_seed = 17;
      config.fingerprint = 99;
      config.heartbeat_interval_ms = 0;
      *worker_status = RunWorkerLoop(fd, config);
    });
    *channel = FrameChannel(sv[0], "worker");
    ASSERT_TRUE(channel->SendMagic().ok());
    std::string payload, error;
    ASSERT_EQ(channel->WaitForFrame(5000, &payload, &error),
              FrameChannel::Read::kFrame);
    HelloMsg hello;
    ASSERT_TRUE(DecodeHello(payload, &hello).ok());
    EXPECT_EQ(hello.fingerprint, 99u);
  }

  /// Sends `assign` to a fresh worker and expects it to refuse: the
  /// coordinator end sees EOF, never a WorkResult, and the loop returns
  /// Corruption.
  void ExpectWorkerRefuses(const WorkAssignMsg& assign) {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    std::thread worker;
    Status worker_status = Status::OK();
    FrameChannel channel;
    StartWorker(&b, &worker, &worker_status, &channel);
    ASSERT_TRUE(
        channel.WriteFrame(EncodeWorkAssign(assign, b.corpus.dict())).ok());
    std::string payload, error;
    EXPECT_EQ(channel.WaitForFrame(5000, &payload, &error),
              FrameChannel::Read::kEof);
    worker.join();
    EXPECT_EQ(worker_status.code(), StatusCode::kCorruption)
        << worker_status.ToString();
  }

  std::string col_path_;
};

TEST_F(ColumnarDistTest, SeededDictionaryLoadBitIdenticalToInProcess) {
  const RunDigest baseline = Baseline();
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  const DistRun run = RunDistOnBundle(&b, 2, BaseOptions());
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
  EXPECT_GT(run.stats.assigns, 0u);
  EXPECT_EQ(run.stats.worker_losses, 0u);
}

TEST_F(ColumnarDistTest, AblationModeBitIdentical) {
  const RunDigest baseline = Baseline(/*hierarchy=*/false);
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  const DistRun run = RunDistOnBundle(&b, 2, BaseOptions(/*hierarchy=*/false));
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
  EXPECT_EQ(run.stats.assigns, b.corpus.NumSources());
}

#ifdef MIDAS_FAULT_INJECTION
// Crash-matrix leg: the seeded worker_crash site _exits workers mid-unit;
// the re-assigned units are rebuilt from source ids by another (possibly
// respawned) worker and the run heals bit-identically.
TEST_F(ColumnarDistTest, SeededWorkerCrashHealsBitIdentical) {
  const RunDigest baseline = Baseline();
  fault::ScopedFaultSpec armed("site=worker_crash,rate=0.25,seed=5");
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  const DistRun run = RunDistOnBundle(&b, 2, BaseOptions());
  ASSERT_TRUE(run.start_status.ok()) << run.start_status.ToString();
  EXPECT_EQ(Digest(run.result), baseline);
  EXPECT_GE(run.stats.reassigns, 1u);
  EXPECT_EQ(run.stats.units_failed, 0u);
}
#endif  // MIDAS_FAULT_INJECTION

// The contract a worker relies on: in every hierarchy round, a task's
// facts are the sorted, deduplicated union of its source ids' facts.
TEST_F(ColumnarDistTest, HierarchySourceIdsNameTheNormalizedFacts) {
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  SourceIdCheckingExecutor executor(&b.corpus);
  core::FrameworkOptions fw = BaseOptions();
  fw.executor = &executor;
  (void)core::MidasFramework(b.alg.get(), fw).Run(b.corpus, *b.kb);
  // Pages, sections and hosts: more tasks than sources.
  EXPECT_GT(executor.checked(), b.corpus.NumSources());
}

// Ablation mode: each task names one source and carries its list as is.
TEST_F(ColumnarDistTest, AblationSourceIdsNameOneSourceAsIs) {
  Bundle b;
  ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
  SourceIdCheckingExecutor executor(&b.corpus);
  core::FrameworkOptions fw = BaseOptions(/*hierarchy=*/false);
  fw.executor = &executor;
  (void)core::MidasFramework(b.alg.get(), fw).Run(b.corpus, *b.kb);
  EXPECT_EQ(executor.checked(), b.corpus.NumSources());
}

TEST_F(ColumnarDistTest, OutOfRangeSourceIdIsCorruption) {
  WorkAssignMsg assign;
  assign.url = "http://host0.com";
  assign.consolidate = true;
  assign.source_ids = {0, 1000};  // the corpus has 12 sources
  ExpectWorkerRefuses(assign);
}

TEST_F(ColumnarDistTest, AblationAssignmentNamingTwoSourcesIsCorruption) {
  WorkAssignMsg assign;
  assign.url = "http://host0.com/sec0/p0.htm";
  assign.consolidate = false;
  assign.source_ids = {0, 1};
  ExpectWorkerRefuses(assign);
  assign.source_ids.clear();
  ExpectWorkerRefuses(assign);
}

// A Shutdown frame is the kind byte alone: it ends the worker with OK, and
// one trailing byte makes it Corruption like any other malformed frame.
TEST_F(ColumnarDistTest, ShutdownFrameMustBeTheKindByteAlone) {
  for (const bool trailing : {false, true}) {
    Bundle b;
    ASSERT_TRUE(LoadBundle(col_path_, &b).ok());
    std::thread worker;
    Status worker_status = Status::OK();
    FrameChannel channel;
    StartWorker(&b, &worker, &worker_status, &channel);
    std::string frame = EncodeShutdown();
    if (trailing) frame.push_back('x');
    ASSERT_TRUE(channel.WriteFrame(frame).ok());
    std::string payload, error;
    EXPECT_EQ(channel.WaitForFrame(5000, &payload, &error),
              FrameChannel::Read::kEof);
    worker.join();
    EXPECT_EQ(worker_status.code(),
              trailing ? StatusCode::kCorruption : StatusCode::kOk)
        << worker_status.ToString();
  }
}

}  // namespace
}  // namespace dist
}  // namespace midas
