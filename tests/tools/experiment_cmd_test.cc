// End-to-end tests of the `experiment` subcommand: a synthetic corpus is
// generated in-process, the requested methods run against it, and the
// scores land in a table or JSON report. Also pins the --metrics_out
// contract CI relies on: the written document carries framework spans,
// hierarchy counters, and thread-pool histograms.

#include "tools/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_helpers.h"
#include "common/test_dir.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"

namespace midas {
namespace tools {
namespace {

using tests::ParseInto;
using tests::ReadAll;

class ExperimentCmdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_ = tests::TestDir() + "/metrics.json";
    obs::Registry::Global().ResetAllForTest();
    obs::Tracer::Global().Reset();
  }
  void TearDown() override { std::remove(metrics_.c_str()); }

  std::string metrics_;
};

TEST_F(ExperimentCmdTest, RunsAndPrintsScoresTable) {
  FlagParser flags;
  RegisterExperimentFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--num_sources=10", "--seed=7",
                                 "--methods=midas,naive"})
                  .ok());
  std::ostringstream out;
  Status status = RunExperiment(flags, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("MIDAS"), std::string::npos);
  EXPECT_NE(out.str().find("Naive"), std::string::npos);
  EXPECT_NE(out.str().find("f-measure"), std::string::npos);
}

TEST_F(ExperimentCmdTest, JsonReportHasPerMethodRows) {
  FlagParser flags;
  RegisterExperimentFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--num_sources=10", "--methods=midas",
                                 "--json"})
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunExperiment(flags, out).ok());
  EXPECT_EQ(out.str()[0], '{');
  EXPECT_NE(out.str().find("\"methods\""), std::string::npos);
  EXPECT_NE(out.str().find("\"f_measure\""), std::string::npos);
  EXPECT_NE(out.str().find("\"silver_slices\""), std::string::npos);
}

// Each method's checkpoint is bound to its detector: resuming greedy over a
// checkpoint the midas run wrote last starts fresh, so the resumed report
// equals a cold greedy run.
TEST_F(ExperimentCmdTest, ResumeNeverRestoresAnotherMethodsShards) {
  const std::string ckpt = tests::TestDir() + "/experiment_ckpt";
  std::filesystem::remove_all(ckpt);
  std::filesystem::create_directories(ckpt);
  const auto run = [&](const std::vector<std::string>& extra) {
    FlagParser flags;
    RegisterExperimentFlags(&flags);
    std::vector<std::string> args = {"--num_sources=10", "--seed=7",
                                     "--json"};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_TRUE(ParseInto(&flags, args).ok());
    std::ostringstream out;
    const Status status = RunExperiment(flags, out);
    EXPECT_TRUE(status.ok()) << status.ToString();
    // Drop the wall-clock lines so separate runs compare equal.
    std::istringstream in(out.str());
    std::string line, report;
    while (std::getline(in, line)) {
      if (line.find("\"seconds\"") == std::string::npos) report += line + "\n";
    }
    return report;
  };
  (void)run({"--methods=greedy,midas", "--checkpoint_dir=" + ckpt});
  const std::string resumed =
      run({"--methods=greedy", "--checkpoint_dir=" + ckpt, "--resume"});
  const std::string cold = run({"--methods=greedy"});
  EXPECT_EQ(resumed, cold);
  std::filesystem::remove_all(ckpt);
}

TEST_F(ExperimentCmdTest, RejectsUnknownMethod) {
  FlagParser flags;
  RegisterExperimentFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--methods=magic"}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunExperiment(flags, out).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExperimentCmdTest, MetricsOutWritesPipelineDocument) {
  FlagParser flags;
  RegisterExperimentFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--num_sources=10", "--methods=midas",
                                 "--metrics_out=" + metrics_,
                                 "--metrics_summary"})
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunExperiment(flags, out).ok());

  const std::string doc = ReadAll(metrics_);
  ASSERT_FALSE(doc.empty());
  // Always-present schema scaffolding (valid even in a noop build).
  EXPECT_NE(doc.find("\"benchmarks\""), std::string::npos);
  EXPECT_NE(doc.find("\"spans\""), std::string::npos);
#ifndef MIDAS_OBS_NOOP
  // The acceptance contract: per-source spans, per-level hierarchy
  // counters, and thread-pool histograms all present in one document.
  EXPECT_NE(doc.find("framework.source"), std::string::npos);
  EXPECT_NE(doc.find("hierarchy.level."), std::string::npos);
  EXPECT_NE(doc.find("threadpool.task_run_us"), std::string::npos);
  // --metrics_summary printed the human-readable table after the scores.
  EXPECT_NE(out.str().find("hierarchy.nodes_generated"), std::string::npos);
#endif
}

}  // namespace
}  // namespace tools
}  // namespace midas
