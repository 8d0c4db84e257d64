// The deterministic fault-matrix suite — the robustness contract of the
// multi-source framework. Each matrix entry arms a fault spec and/or a
// per-source deadline and runs the full pipeline, asserting that:
//
//   * the run completes (no crash, no std::terminate from a pool task);
//   * every span is closed exactly once (open_spans() back to zero);
//   * per-source failure reporting is accurate: the kFailed reports agree
//     with FrameworkStats.shards_failed and the obs counters;
//   * with no deadline in play, the run is deterministic — a replay with
//     the same spec yields bit-identical slices and statuses;
//   * a zero-fault run (hooks compiled in, nothing armed or rate=0) is
//     bit-identical to the unarmed baseline.
//
// Leak-freedom is asserted by the CI fault-matrix job, which runs this
// binary under ASan+UBSan (LeakSanitizer included).

#include "midas/core/framework.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/corpus_fixture.h"
#include "common/test_dir.h"
#include "midas/core/midas_alg.h"
#include "midas/fault/fault.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"
#include "midas/store/checkpoint.h"
#include "midas/util/timer.h"

namespace midas {
namespace core {
namespace {

uint64_t CounterValue(const std::string& name) {
  const obs::Counter* c = obs::Registry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->Value();
}

/// One matrix entry: a fault spec (may be empty), a per-source deadline,
/// and whether a replay must reproduce the exact same result (true unless
/// the entry depends on wall-clock deadlines). Entries with `checkpoint`
/// set run with a checkpoint log, exercising the durable-append path under
/// the armed faults (append failures must never change the run's result).
struct MatrixEntry {
  constexpr MatrixEntry(const char* entry_name, const char* fault_spec,
                        uint64_t deadline, bool replays_exactly,
                        bool with_checkpoint = false)
      : deadline_ms(deadline),
        deterministic(replays_exactly),
        checkpoint(with_checkpoint),
        name(entry_name),
        spec(fault_spec) {}

  uint64_t deadline_ms;
  bool deterministic;
  bool checkpoint;
  const char* name;
  const char* spec;
};

const MatrixEntry kMatrix[] = {
    {"no_fault_no_deadline", "", 0, true},
    {"detector_rate0", "site=detector,rate=0,seed=1", 0, true},
    {"detector_rare", "site=detector,rate=0.05,seed=42", 0, true},
    {"detector_third", "site=detector,rate=0.3,seed=1", 0, true},
    {"detector_third_alt_seed", "site=detector,rate=0.3,seed=99", 0, true},
    // max_fires-capped entries are NOT replay-deterministic: the cap is a
    // global budget consumed in thread-schedule order, so *which* shard
    // absorbs the capped fires varies run to run (the no-crash/accurate-
    // reporting contract still holds).
    {"detector_half_capped", "site=detector,rate=0.5,seed=5,max_fires=3", 0,
     false},
    {"detector_always", "site=detector,rate=1,seed=2", 0, true},
    {"detector_always_capped", "site=detector,rate=1,seed=2,max_fires=2", 0,
     false},
    {"alloc_rare", "site=alloc,rate=0.001,seed=7", 0, true},
    {"alloc_occasional", "site=alloc,rate=0.01,seed=3", 0, true},
    {"alloc_once", "site=alloc,rate=1,seed=4,max_fires=1", 0, false},
    {"slow_half", "site=slow_shard,rate=0.5,seed=6,delay_ms=3", 0, true},
    {"slow_all", "site=slow_shard,rate=1,seed=6,delay_ms=2", 0, true},
    {"detector_plus_slow",
     "site=detector,rate=0.3,seed=1;site=slow_shard,rate=0.5,delay_ms=2", 0,
     true},
    {"detector_plus_alloc",
     "site=detector,rate=0.2,seed=9;site=alloc,rate=0.005,seed=9", 0, true},
    {"deadline_tight", "", 1, false},
    {"deadline_loose", "", 200, false},
    {"detector_with_deadline", "site=detector,rate=0.3,seed=1", 50, false},
    {"slow_past_deadline", "site=slow_shard,rate=1,delay_ms=10", 5, false},
    {"everything",
     "site=detector,rate=0.2,seed=3;site=slow_shard,rate=0.3,delay_ms=2;"
     "site=alloc,rate=0.002,seed=3",
     40, false},
    // Durable-I/O sites against the checkpoint log. Armed-at-rate-0 must be
    // inert; every-append-fails must disable checkpointing without touching
    // the run's result; torn appends leave a recoverable prefix (the resume
    // contract is asserted in tests/store/checkpoint_resume_test.cc).
    {"io_write_fail_rate0", "site=io_write_fail,rate=0,seed=1", 0, true, true},
    {"io_torn_write_rate0", "site=io_torn_write,rate=0,seed=1", 0, true, true},
    {"io_write_fail_all", "site=io_write_fail,rate=1,seed=2", 0, true, true},
    {"io_torn_write_some", "site=io_torn_write,rate=0.3,seed=8", 0, true,
     true},
    {"io_plus_detector",
     "site=io_write_fail,rate=0.5,seed=4;site=detector,rate=0.2,seed=4", 0,
     true, true},
};

/// The test parameter: one kMatrix row. gtest prints a parameter that has
/// no PrintTo as its raw bytes, and the test run lists each case as its
/// name followed by that dump. The entry's dump held its string addresses,
/// which move with address-space randomisation; this one holds only fixed
/// bytes. Its leading fields and its size are the entry's, so each listed
/// name keeps the prefix it always had (a PrintTo of the entry name would
/// change that prefix for most cases).
struct MatrixConfig {
  uint64_t deadline_ms = 0;
  bool deterministic = false;
  bool checkpoint = false;
  uint16_t row = 0;
  /// Explicit zeros up to the entry's size, so no byte is padding.
  uint8_t zero_fill[20] = {};

  const MatrixEntry& entry() const { return kMatrix[row]; }
};
static_assert(sizeof(MatrixConfig) == sizeof(MatrixEntry));

std::vector<MatrixConfig> MatrixConfigs() {
  std::vector<MatrixConfig> configs(std::size(kMatrix));
  for (size_t i = 0; i < configs.size(); ++i) {
    configs[i].deadline_ms = kMatrix[i].deadline_ms;
    configs[i].deterministic = kMatrix[i].deterministic;
    configs[i].checkpoint = kMatrix[i].checkpoint;
    configs[i].row = static_cast<uint16_t>(i);
  }
  return configs;
}

/// The per-source outcome digest a deterministic replay must reproduce.
struct RunDigest {
  std::vector<std::string> slice_keys;  // url + description-ish + profit
  std::vector<std::string> source_keys;  // url + status + attempts
  bool partial = false;
};

RunDigest Digest(const FrameworkResult& result) {
  RunDigest digest;
  for (const auto& s : result.slices) {
    digest.slice_keys.push_back(s.source_url + "|" +
                                std::to_string(s.num_facts) + "|" +
                                std::to_string(s.num_new_facts) + "|" +
                                std::to_string(s.profit));
  }
  for (const auto& sr : result.sources) {
    digest.source_keys.push_back(
        sr.url + "|" + SourceStatusName(sr.status) + "|" +
        std::to_string(sr.attempts));
  }
  digest.partial = result.partial;
  return digest;
}

class FaultMatrixTest : public ::testing::TestWithParam<MatrixConfig> {
 protected:
  void SetUp() override {
#ifndef MIDAS_FAULT_INJECTION
    GTEST_SKIP() << "fault-injection hooks compiled out";
#endif
#ifndef MIDAS_OBS_NOOP
    obs::Registry::Global().ResetAllForTest();
    obs::Tracer::Global().Reset();
#endif
  }
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  FrameworkResult RunOnce(const MatrixConfig& config) {
    auto dict = std::make_shared<rdf::Dictionary>();
    web::Corpus corpus(dict);
    tests::FillSectionedCorpus(&corpus, /*sections=*/6,
                               /*entities_per_section=*/8);
    rdf::KnowledgeBase kb(dict);

    MidasOptions alg_options;
    alg_options.cost_model = CostModel::RunningExample();
    MidasAlg alg(alg_options);

    FrameworkOptions fw;
    fw.source_deadline_ms = config.deadline_ms;
    fw.retry_backoff_ms = 1;  // keep the matrix fast
    if (config.checkpoint) {
      // Fresh (non-resume) checkpointing each run so replays stay
      // bit-identical: Create truncates whatever the previous run left.
      const std::string dir = tests::TestDir() + "/ckpt";
      ::mkdir(dir.c_str(), 0755);
      fw.checkpoint_dir = dir;
    }
    MidasFramework framework(&alg, fw);

    const char* spec = config.entry().spec;
    if (spec[0] != '\0') {
      EXPECT_TRUE(fault::FaultInjector::Global().Configure(spec).ok());
    }
    FrameworkResult result = framework.Run(corpus, kb);
    fault::FaultInjector::Global().Disarm();
    return result;
  }
};

TEST_P(FaultMatrixTest, CompletesWithAccurateReportsAndBalancedSpans) {
  const MatrixConfig& config = GetParam();
  FrameworkResult result = RunOnce(config);

  // Every planned shard reported exactly once, sorted by URL.
  ASSERT_FALSE(result.sources.empty());
  for (size_t i = 1; i < result.sources.size(); ++i) {
    EXPECT_LE(result.sources[i - 1].url, result.sources[i].url);
  }

  size_t failed = 0, partial = 0, cancelled = 0, retries = 0;
  for (const auto& sr : result.sources) {
    switch (sr.status) {
      case SourceStatus::kFailed:
        ++failed;
        EXPECT_FALSE(sr.error.empty()) << sr.url;
        // A permanent failure exhausted every attempt.
        EXPECT_EQ(sr.attempts, FrameworkOptions{}.max_retries + 1) << sr.url;
        break;
      case SourceStatus::kPartial:
        ++partial;
        break;
      case SourceStatus::kCancelled:
        ++cancelled;
        break;
      case SourceStatus::kOk:
      case SourceStatus::kNoSlices:
        EXPECT_TRUE(sr.error.empty()) << sr.url;
        break;
    }
    if (sr.attempts > 1) retries += sr.attempts - 1;
  }

  // Reports agree with the aggregate stats...
  EXPECT_EQ(failed, result.stats.shards_failed);
  EXPECT_EQ(partial, result.stats.deadline_expirations);
  EXPECT_EQ(retries, result.stats.shard_retries);
  EXPECT_EQ(result.partial, partial + cancelled > 0);
  // ...and no slice is attributed to a permanently-failed source.
  for (const auto& sr : result.sources) {
    if (sr.status != SourceStatus::kFailed) continue;
    for (const auto& s : result.slices) {
      EXPECT_NE(s.source_url, sr.url);
    }
  }

  if (config.checkpoint) {
    // Fresh runs never resume, and whatever the io faults did to the log,
    // the checkpoint log on disk is readable back to its last intact
    // record (a torn append may leave tail garbage behind valid_bytes).
    EXPECT_EQ(result.stats.sources_resumed, 0u);
    const std::string log_path =
        tests::TestDir() + "/ckpt/" + store::kCheckpointFileName;
    StatusOr<store::RecordReadResult> read = store::ReadRecordLog(log_path);
    if (read.ok()) {
      EXPECT_LE(read->records.size(), result.sources.size() + 1);
    } else {
      // Every append failed before the log was even created.
      EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
      EXPECT_GT(result.stats.checkpoint_write_errors, 0u);
    }
    std::remove(log_path.c_str());
  }

#ifndef MIDAS_OBS_NOOP
  // Span balance: error paths and deadline stops close what they open.
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0);
  // The new robustness counters mirror the run's stats.
  EXPECT_EQ(CounterValue("framework.shards_failed"),
            result.stats.shards_failed);
  EXPECT_EQ(CounterValue("framework.shard_retries"),
            result.stats.shard_retries);
  EXPECT_EQ(CounterValue("framework.deadline_expirations"),
            result.stats.deadline_expirations);
#endif
}

TEST_P(FaultMatrixTest, ReplayIsBitIdentical) {
  const MatrixConfig& config = GetParam();
  if (!config.deterministic) {
    GTEST_SKIP() << "entry depends on wall-clock deadlines";
  }
  RunDigest first = Digest(RunOnce(config));
  RunDigest second = Digest(RunOnce(config));
  EXPECT_EQ(first.slice_keys, second.slice_keys);
  EXPECT_EQ(first.source_keys, second.source_keys);
  EXPECT_EQ(first.partial, second.partial);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest, ::testing::ValuesIn(MatrixConfigs()),
    [](const ::testing::TestParamInfo<MatrixConfig>& info) {
      return std::string(info.param.entry().name);
    });

class FaultFreeBitIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef MIDAS_OBS_NOOP
    obs::Registry::Global().ResetAllForTest();
    obs::Tracer::Global().Reset();
#endif
  }
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  FrameworkResult RunPipeline(const FrameworkOptions& fw) {
    auto dict = std::make_shared<rdf::Dictionary>();
    web::Corpus corpus(dict);
    tests::FillSectionedCorpus(&corpus, /*sections=*/6,
                               /*entities_per_section=*/8);
    rdf::KnowledgeBase kb(dict);
    MidasOptions alg_options;
    alg_options.cost_model = CostModel::RunningExample();
    MidasAlg alg(alg_options);
    return MidasFramework(&alg, fw).Run(corpus, kb);
  }
};

/// The acceptance bar for the whole subsystem: with the hooks compiled in
/// but nothing firing — disarmed, armed-at-rate-0, or armed with an
/// enormous budget — the discovered slices are bit-identical to the plain
/// run, and no source reports anything but clean completion.
TEST_F(FaultFreeBitIdentityTest, ZeroFaultRunsMatchBaseline) {
  RunDigest baseline = Digest(RunPipeline(FrameworkOptions{}));
  EXPECT_FALSE(baseline.partial);

#ifdef MIDAS_FAULT_INJECTION
  {
    fault::ScopedFaultSpec armed("site=detector,rate=0,seed=42");
    RunDigest armed_but_silent = Digest(RunPipeline(FrameworkOptions{}));
    EXPECT_EQ(baseline.slice_keys, armed_but_silent.slice_keys);
    EXPECT_EQ(baseline.source_keys, armed_but_silent.source_keys);
  }
#endif

  FrameworkOptions huge_budget;
  huge_budget.source_deadline_ms = 1'000'000;
  RunDigest budgeted = Digest(RunPipeline(huge_budget));
  EXPECT_EQ(baseline.slice_keys, budgeted.slice_keys);
  EXPECT_EQ(baseline.source_keys, budgeted.source_keys);
  EXPECT_FALSE(budgeted.partial);
}

/// Deadline semantics: an expiring per-source budget yields partial=true,
/// best-so-far slices, and framework.deadline_expirations > 0 — and the run
/// finishes promptly instead of grinding through the full lattice.
TEST_F(FaultFreeBitIdentityTest, ExpiredBudgetReturnsPartialPromptly) {
#ifndef MIDAS_FAULT_INJECTION
  GTEST_SKIP() << "fault-injection hooks compiled out";
#else
  // A slow-shard sleep longer than the budget guarantees every shard's
  // token is already expired when detection starts, independent of how
  // fast the machine builds hierarchies.
  fault::ScopedFaultSpec slow("site=slow_shard,rate=1,delay_ms=20");
  FrameworkOptions fw;
  fw.source_deadline_ms = 2;
  Stopwatch watch;
  FrameworkResult result = RunPipeline(fw);
  const double seconds = watch.ElapsedSeconds();

  EXPECT_TRUE(result.partial);
  EXPECT_GT(result.stats.deadline_expirations, 0u);
  for (const auto& sr : result.sources) {
    EXPECT_EQ(sr.status, SourceStatus::kPartial) << sr.url;
    EXPECT_EQ(sr.attempts, 1u) << sr.url;  // expired budgets do not retry
  }
#ifndef MIDAS_OBS_NOOP
  EXPECT_GT(CounterValue("framework.deadline_expirations"), 0u);
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0);
#endif
  // Budget + one sleep per shard, with generous slack for slow machines:
  // far below what full unbounded detection plus retries would take.
  EXPECT_LT(seconds, 30.0);
#endif  // MIDAS_FAULT_INJECTION
}

/// Whole-run cancellation: a pre-cancelled token means no shard is
/// detected, every planned source is reported cancelled, and the result is
/// flagged partial — without a crash or span imbalance.
TEST_F(FaultFreeBitIdentityTest, PreCancelledRunReportsEverySourceCancelled) {
  fault::CancelToken cancel;
  cancel.Cancel();
  FrameworkOptions fw;
  fw.cancel = &cancel;
  FrameworkResult result = RunPipeline(fw);

  EXPECT_TRUE(result.partial);
  EXPECT_TRUE(result.slices.empty());
  ASSERT_FALSE(result.sources.empty());
  for (const auto& sr : result.sources) {
    EXPECT_EQ(sr.status, SourceStatus::kCancelled) << sr.url;
    EXPECT_EQ(sr.attempts, 0u) << sr.url;
  }
#ifndef MIDAS_OBS_NOOP
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0);
#endif
}

}  // namespace
}  // namespace core
}  // namespace midas
