// End-to-end tests of the `midas` CLI subcommands (driven through the
// command library, not a subprocess): generate a dataset to disk, discover
// slices from the dump, inspect stats, and evaluate against the silver
// standard.

#include "tools/commands.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_helpers.h"
#include "common/test_dir.h"
#include "midas/obs/obs.h"

namespace midas {
namespace tools {
namespace {

using tests::ParseInto;

class CommandsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tests::TestDir();
    dump_ = dir_ + "/cli_dump.tsv";
    kb_ = dir_ + "/cli_kb.tsv";
    silver_ = dir_ + "/cli_silver.tsv";
    slices_ = dir_ + "/cli_slices.tsv";
  }
  void TearDown() override {
    for (const auto& p : {dump_, kb_, silver_, slices_}) {
      std::remove(p.c_str());
    }
  }

  // Runs `generate` producing all three artifacts.
  void Generate() {
    FlagParser flags;
    RegisterGenerateFlags(&flags);
    ASSERT_TRUE(ParseInto(&flags, {"--dataset=slim-nell",
                                   "--num_sources=30", "--seed=17",
                                   "--dump=" + dump_, "--kb=" + kb_,
                                   "--silver=" + silver_})
                    .ok());
    std::ostringstream out;
    Status status = RunGenerate(flags, out);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_NE(out.str().find("extraction records"), std::string::npos);
  }

  // Runs `discover --json` on the generated dump with extra flags and
  // returns the report text.
  std::string DiscoverJson(const std::vector<std::string>& extra) {
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    std::vector<std::string> args = {"--dump=" + dump_, "--kb=" + kb_,
                                     "--json"};
    args.insert(args.end(), extra.begin(), extra.end());
    if (!ParseInto(&flags, args).ok()) {
      ADD_FAILURE() << "flag parse failed";
      return "";
    }
    std::ostringstream out;
    const Status status = RunDiscover(flags, out);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return out.str();
  }

  // Drops the wall-clock line so reports from separate runs compare equal.
  static std::string StripSeconds(const std::string& json) {
    std::string out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("\"seconds\"") != std::string::npos) continue;
      out += line;
      out += '\n';
    }
    return out;
  }

  /// Runs `midas coordinator` on the generated dump (with `coord_extra`)
  /// against one forked `midas worker` loading `worker_dump` (with
  /// `worker_extra`), and returns how many workers the coordinator
  /// rejected at Hello. A rejected worker leaves the coordinator short of
  /// --min_workers, so it times out; an accepted one runs the job.
  uint64_t RejectedWorkers(const std::vector<std::string>& coord_extra,
                           const std::string& worker_dump,
                           const std::vector<std::string>& worker_extra) {
    const std::string sock = dir_ + "/cli_dist.sock";
    obs::Counter* rejected = MIDAS_OBS_COUNTER("dist.rejected_workers");
    const uint64_t before = rejected->Value();
    const pid_t pid = ::fork();
    if (pid == 0) {
      FlagParser flags;
      RegisterWorkerFlags(&flags);
      std::vector<std::string> args = {"--dump=" + worker_dump,
                                       "--connect=" + sock,
                                       "--connect_timeout_ms=10000"};
      args.insert(args.end(), worker_extra.begin(), worker_extra.end());
      std::ostringstream out;
      ::_exit(ParseInto(&flags, args).ok() && RunWorker(flags, out).ok() ? 0
                                                                        : 1);
    }
    FlagParser flags;
    RegisterCoordinatorFlags(&flags);
    std::vector<std::string> args = {"--dump=" + dump_, "--json",
                                     "--listen=" + sock, "--min_workers=1",
                                     "--accept_timeout_ms=3000"};
    args.insert(args.end(), coord_extra.begin(), coord_extra.end());
    EXPECT_TRUE(ParseInto(&flags, args).ok());
    std::ostringstream out;
    (void)RunCoordinator(flags, out);
    ::waitpid(pid, nullptr, 0);
    std::remove(sock.c_str());
    return rejected->Value() - before;
  }

  std::string dir_, dump_, kb_, silver_, slices_;
};

TEST_F(CommandsTest, GenerateWritesArtifacts) {
  Generate();
  for (const auto& p : {dump_, kb_, silver_}) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
  }
}

TEST_F(CommandsTest, GenerateRequiresDump) {
  FlagParser flags;
  RegisterGenerateFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunGenerate(flags, out).code(), StatusCode::kInvalidArgument);
}

TEST_F(CommandsTest, GenerateRejectsUnknownDataset) {
  FlagParser flags;
  RegisterGenerateFlags(&flags);
  ASSERT_TRUE(
      ParseInto(&flags, {"--dataset=bogus", "--dump=" + dump_}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunGenerate(flags, out).code(), StatusCode::kInvalidArgument);
}

TEST_F(CommandsTest, DiscoverThenEvaluateScoresWell) {
  Generate();

  {
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_, "--out=" + slices_,
                                   "--top_k=5"})
                    .ok());
    std::ostringstream out;
    Status status = RunDiscover(flags, out);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_NE(out.str().find("discovered"), std::string::npos);
    EXPECT_NE(out.str().find("saved full slice list"), std::string::npos);
  }

  {
    FlagParser flags;
    RegisterEvaluateFlags(&flags);
    ASSERT_TRUE(ParseInto(&flags, {"--slices=" + slices_,
                                   "--silver=" + silver_})
                    .ok());
    std::ostringstream out;
    Status status = RunEvaluate(flags, out);
    ASSERT_TRUE(status.ok()) << status.ToString();
    // MIDAS on a slim dataset recalls essentially everything; the printed
    // table must contain a high recall value. Just assert the run printed
    // non-zero matched slices.
    EXPECT_EQ(out.str().find("| 0       | 0"), std::string::npos);
  }
}

TEST_F(CommandsTest, DiscoverSupportsEveryMethod) {
  Generate();
  for (const char* method : {"midas", "greedy", "aggcluster", "naive"}) {
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_,
                                   std::string("--method=") + method})
                    .ok());
    std::ostringstream out;
    Status status = RunDiscover(flags, out);
    EXPECT_TRUE(status.ok()) << method << ": " << status.ToString();
  }
}

TEST_F(CommandsTest, DiscoverRejectsUnknownMethod) {
  Generate();
  FlagParser flags;
  RegisterDiscoverFlags(&flags);
  ASSERT_TRUE(
      ParseInto(&flags, {"--dump=" + dump_, "--method=magic"}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunDiscover(flags, out).code(), StatusCode::kInvalidArgument);
}

// The --workers path must be byte-for-byte the in-process run (modulo the
// wall-clock "seconds" line of the JSON report).
TEST_F(CommandsTest, DiscoverWithWorkersMatchesInProcessJson) {
  Generate();
  const std::string in_process = DiscoverJson({});
  const std::string dist = DiscoverJson({"--workers=2"});
  EXPECT_EQ(StripSeconds(in_process), StripSeconds(dist));
}

#ifdef MIDAS_FAULT_INJECTION
// Regression: respawned workers fork from inside framework.Run, long after
// the coordinator-setup scope has returned — the worker_main closure must
// not reference anything on that dead stack frame. A seeded worker_crash
// forces losses + respawns; the healed run must still match in-process.
TEST_F(CommandsTest, DiscoverWorkersHealCrashesBitIdentical) {
  Generate();
  const std::string in_process = DiscoverJson({});
  obs::Counter* losses = MIDAS_OBS_COUNTER("dist.worker_losses");
  const uint64_t losses_before = losses->Value();
  const std::string healed = DiscoverJson(
      {"--workers=2", "--worker_respawn_limit=64",
       "--fault_spec=site=worker_crash,rate=0.02,seed=5"});
  // The seeded crash site must actually have killed workers — otherwise
  // this asserts nothing about the respawn path.
  EXPECT_GT(losses->Value(), losses_before);
  EXPECT_EQ(StripSeconds(in_process), StripSeconds(healed));
  EXPECT_NE(healed.find("\"shards_failed\": 0"), std::string::npos);
}

// Self-forked workers heartbeat only for a liveness deadline: without
// --worker_liveness_ms nothing reads a beat, so none is sent, even while a
// unit outlasts the 1 s heartbeat interval. Each worker's first unit sleeps
// 1.1 s (the spec is inherited at fork, and max_fires counts per process).
TEST_F(CommandsTest, DiscoverWorkersHeartbeatOnlyForALivenessDeadline) {
  Generate();
  const std::string in_process = DiscoverJson({});
  const std::string slow =
      "--fault_spec=site=slow_shard,rate=1,seed=1,delay_ms=1100,max_fires=1";
  obs::Counter* heartbeats = MIDAS_OBS_COUNTER("dist.heartbeats");
  uint64_t before = heartbeats->Value();
  const std::string quiet = DiscoverJson({"--workers=2", slow});
  EXPECT_EQ(heartbeats->Value(), before);
  EXPECT_EQ(StripSeconds(in_process), StripSeconds(quiet));

  before = heartbeats->Value();
  const std::string watched =
      DiscoverJson({"--workers=2", "--worker_liveness_ms=5000", slow});
  EXPECT_GT(heartbeats->Value(), before);
  EXPECT_EQ(StripSeconds(in_process), StripSeconds(watched));
}
#endif  // MIDAS_FAULT_INJECTION

// The run fingerprint binds the detector: a worker with another cost model
// and no KB is rejected at Hello instead of merging slices a default
// coordinator could never have produced.
TEST_F(CommandsTest, CoordinatorRejectsWorkerWithAnotherDetector) {
  Generate();
  EXPECT_EQ(RejectedWorkers({"--kb=" + kb_}, dump_, {"--kb=" + kb_}), 0u);
  EXPECT_GE(RejectedWorkers({"--kb=" + kb_}, dump_, {"--f_c=0.5"}), 1u);
}

// The run fingerprint binds corpus content, not just its shape: a worker
// whose dump has the same URLs and per-source fact counts but one changed
// object is rejected at Hello — its source ids would name other facts.
TEST_F(CommandsTest, CoordinatorRejectsWorkerWithSameShapeDifferentContent) {
  Generate();
  const std::string altered = dir_ + "/cli_dump_altered.tsv";
  {
    std::istringstream in(tests::ReadAll(dump_));
    std::ofstream out(altered);
    std::string line;
    bool changed = false;
    while (std::getline(in, line)) {
      if (!changed) {
        // url, subject, predicate, object, confidence: swap the object.
        std::vector<std::string> cols;
        std::istringstream row(line);
        for (std::string col; std::getline(row, col, '\t');) {
          cols.push_back(col);
        }
        ASSERT_EQ(cols.size(), 5u) << line;
        cols[3] = "altered_object_not_in_the_dump";
        line = cols[0] + "\t" + cols[1] + "\t" + cols[2] + "\t" + cols[3] +
               "\t" + cols[4];
        changed = true;
      }
      out << line << "\n";
    }
  }
  EXPECT_GE(RejectedWorkers({}, altered, {}), 1u);
  std::remove(altered.c_str());
}

// A checkpoint written by another method does not resume: the fingerprint
// binds the detector, so the run starts fresh and matches a cold run.
TEST_F(CommandsTest, ResumeAfterAnotherMethodsCheckpointStartsFresh) {
  Generate();
  const std::string ckpt = dir_ + "/cli_ckpt";
  std::filesystem::remove_all(ckpt);
  std::filesystem::create_directories(ckpt);
  const std::string greedy =
      DiscoverJson({"--method=greedy", "--checkpoint_dir=" + ckpt});
  const std::string resumed =
      DiscoverJson({"--checkpoint_dir=" + ckpt, "--resume"});
  const std::string cold = DiscoverJson({});
  EXPECT_EQ(StripSeconds(resumed), StripSeconds(cold));
  EXPECT_NE(greedy.find("\"greedy\""), std::string::npos);
  std::filesystem::remove_all(ckpt);
}

TEST_F(CommandsTest, DiscoverWithRangesFlag) {
  Generate();
  FlagParser flags;
  RegisterDiscoverFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_, "--ranges"}).ok());
  std::ostringstream out;
  Status status = RunDiscover(flags, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("numeric-range extension"), std::string::npos);
}

TEST_F(CommandsTest, DiscoverJsonOutput) {
  Generate();
  FlagParser flags;
  RegisterDiscoverFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_, "--json"}).ok());
  std::ostringstream out;
  Status status = RunDiscover(flags, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.str()[0], '{');
  EXPECT_NE(out.str().find("\"slices\""), std::string::npos);
  EXPECT_NE(out.str().find("\"profit\""), std::string::npos);
}

// `discover --dump x.midascol` opens the file with every check before it
// decodes a byte of payload: one byte flipped inside any of the seven
// sections must fail the run with Corruption, never feed discovery.
TEST_F(CommandsTest, DiscoverRejectsCorruptColumnarDump) {
  Generate();
  const std::string col = dir_ + "/cli_dump.midascol";
  {
    FlagParser flags;
    RegisterConvertFlags(&flags);
    ASSERT_TRUE(
        ParseInto(&flags, {"--in=" + dump_, "--out=" + col}).ok());
    std::ostringstream out;
    ASSERT_TRUE(RunConvert(flags, out).ok());
  }
  const auto discover = [&]() {
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    EXPECT_TRUE(ParseInto(&flags, {"--dump=" + col, "--json"}).ok());
    std::ostringstream out;
    return RunDiscover(flags, out);
  };
  ASSERT_TRUE(discover().ok());

  std::string bytes;
  {
    std::ifstream in(col, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // MIDASCOL1's 216-byte footer (docs/FORMATS.md) opens with three u64
  // counts, then one {u64 offset, u64 size, u32 crc, u32 reserved} entry
  // per section.
  constexpr size_t kFooterBytes = 216;
  constexpr size_t kNumSections = 7;
  ASSERT_GT(bytes.size(), kFooterBytes);
  const size_t footer = bytes.size() - kFooterBytes;
  for (size_t section = 0; section < kNumSections; ++section) {
    uint64_t offset = 0, size = 0;
    std::memcpy(&offset, bytes.data() + footer + 24 + 24 * section, 8);
    std::memcpy(&size, bytes.data() + footer + 24 + 24 * section + 8, 8);
    ASSERT_GT(size, 0u) << "section " << section;
    std::string corrupt = bytes;
    corrupt[offset + size / 2] ^= 0x01;
    {
      std::ofstream out(col, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    const Status status = discover();
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "section " << section << ": " << status.ToString();
  }
  std::remove(col.c_str());
}

TEST_F(CommandsTest, EvaluateJsonOutput) {
  Generate();
  {
    FlagParser flags;
    RegisterDiscoverFlags(&flags);
    ASSERT_TRUE(
        ParseInto(&flags, {"--dump=" + dump_, "--out=" + slices_}).ok());
    std::ostringstream out;
    ASSERT_TRUE(RunDiscover(flags, out).ok());
  }
  FlagParser flags;
  RegisterEvaluateFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--slices=" + slices_,
                                 "--silver=" + silver_, "--json"})
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(RunEvaluate(flags, out).ok());
  EXPECT_NE(out.str().find("\"f_measure\""), std::string::npos);
}

#ifdef MIDAS_FAULT_INJECTION
TEST_F(CommandsTest, DiscoverReportsPartialWhenSourceDeadlineExpires) {
  Generate();
  FlagParser flags;
  RegisterDiscoverFlags(&flags);
  // Every shard sleeps past its 1 ms budget; the run must complete, flag
  // itself partial, and count the expirations — through the CLI surface.
  ASSERT_TRUE(
      ParseInto(&flags, {"--dump=" + dump_, "--source_deadline_ms=1",
                         "--fault_spec=site=slow_shard,delay_ms=5",
                         "--json"})
          .ok());
  std::ostringstream out;
  Status status = RunDiscover(flags, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("\"partial\": true"), std::string::npos);
  EXPECT_EQ(out.str().find("\"deadline_expirations\": 0,"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"status\": \"partial\""), std::string::npos);
}

TEST_F(CommandsTest, DiscoverRejectsMalformedFaultSpec) {
  Generate();
  FlagParser flags;
  RegisterDiscoverFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_,
                                 "--fault_spec=site=detector,rate=nope"})
                  .ok());
  std::ostringstream out;
  EXPECT_EQ(RunDiscover(flags, out).code(), StatusCode::kInvalidArgument);
}
#endif  // MIDAS_FAULT_INJECTION

TEST_F(CommandsTest, StatsPrintsCounts) {
  Generate();
  FlagParser flags;
  RegisterStatsFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--dump=" + dump_}).ok());
  std::ostringstream out;
  Status status = RunStats(flags, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("# of facts"), std::string::npos);
}

TEST_F(CommandsTest, StatsMissingDumpFileIsIoError) {
  FlagParser flags;
  RegisterStatsFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--dump=/no/such/file.tsv"}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunStats(flags, out).code(), StatusCode::kIoError);
}

TEST_F(CommandsTest, EvaluateRequiresBothFiles) {
  FlagParser flags;
  RegisterEvaluateFlags(&flags);
  ASSERT_TRUE(ParseInto(&flags, {"--slices=" + slices_}).ok());
  std::ostringstream out;
  EXPECT_EQ(RunEvaluate(flags, out).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tools
}  // namespace midas
