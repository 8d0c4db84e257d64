// Kill-and-resume acceptance suite (ISSUE 4 tentpole): a checkpointed run
// that dies at ANY byte of the checkpoint log — every record boundary and
// mid-record tears included — must, after --resume, produce slices and
// per-source reports bit-identical to an uninterrupted run. Also covers
// fingerprint rejection, the ablation (no-hierarchy) path, and injected
// checkpoint-append failures.

#include "midas/store/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/corpus_fixture.h"
#include "common/test_dir.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/fault/fault.h"
#include "midas/store/record_log.h"

namespace midas {
namespace core {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/// The bit-identity digest: every field that reaches users. Profit uses
/// the scientific round-trip of to_string only for display — the checkpoint
/// stores exact bit patterns, so == on the double itself is the real check,
/// done via the slice vectors below.
struct RunDigest {
  std::vector<std::string> slice_keys;
  std::vector<std::string> source_keys;
  bool partial = false;

  bool operator==(const RunDigest& other) const = default;
};

RunDigest Digest(const FrameworkResult& result) {
  RunDigest digest;
  for (const auto& s : result.slices) {
    std::string key = s.source_url + "|" + std::to_string(s.num_facts) + "|" +
                      std::to_string(s.num_new_facts) + "|";
    // Exact profit bits, not a decimal rendering.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(s.profit));
    std::memcpy(&bits, &s.profit, sizeof(bits));
    key += std::to_string(bits);
    key += "|props=" + std::to_string(s.properties.size());
    key += "|ents=" + std::to_string(s.entities.size());
    key += "|facts=" + std::to_string(s.facts.size());
    for (const auto& p : s.properties) {
      key += "|" + std::to_string(p.predicate) + ":" +
             std::to_string(p.value);
    }
    digest.slice_keys.push_back(std::move(key));
  }
  for (const auto& sr : result.sources) {
    digest.source_keys.push_back(sr.url + "|" +
                                 SourceStatusName(sr.status) + "|" +
                                 std::to_string(sr.attempts) + "|" +
                                 sr.error);
  }
  digest.partial = result.partial;
  return digest;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tests::TestDir();
    ckpt_path_ = dir_ + "/" + store::kCheckpointFileName;
    std::remove(ckpt_path_.c_str());
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    std::remove(ckpt_path_.c_str());
    ::rmdir(dir_.c_str());
  }

  FrameworkResult RunPipeline(FrameworkOptions fw) {
    auto dict = std::make_shared<rdf::Dictionary>();
    web::Corpus corpus(dict);
    tests::FillSectionedCorpus(&corpus, /*sections=*/5,
                               /*entities_per_section=*/7);
    rdf::KnowledgeBase kb(dict);
    MidasOptions alg_options;
    alg_options.cost_model = CostModel::RunningExample();
    MidasAlg alg(alg_options);
    return MidasFramework(&alg, fw).Run(corpus, kb);
  }

  FrameworkOptions CheckpointedOptions(bool resume,
                                       bool hierarchy = true) const {
    FrameworkOptions fw;
    fw.use_hierarchy_rounds = hierarchy;
    fw.checkpoint_dir = dir_;
    fw.resume = resume;
    return fw;
  }

  /// Record boundaries (byte offsets) of the checkpoint log: after the
  /// magic, after the header record, then after each entry.
  std::vector<size_t> LogBoundaries(const std::string& bytes) {
    std::vector<size_t> boundaries{store::kRecordLogMagicLen};
    StatusOr<store::RecordReadResult> read =
        store::ReadRecordLog(ckpt_path_);
    EXPECT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_FALSE(read->tail_truncated);
    for (const std::string& record : read->records) {
      boundaries.push_back(boundaries.back() + store::kRecordHeaderLen +
                           record.size());
    }
    EXPECT_EQ(boundaries.back(), bytes.size());
    return boundaries;
  }

  std::string dir_;
  std::string ckpt_path_;
};

TEST_F(CheckpointResumeTest, CheckpointingDoesNotChangeTheResult) {
  const RunDigest plain = Digest(RunPipeline(FrameworkOptions{}));
  const FrameworkResult checkpointed =
      RunPipeline(CheckpointedOptions(/*resume=*/false));
  EXPECT_EQ(Digest(checkpointed), plain);
  EXPECT_EQ(checkpointed.stats.checkpoint_write_errors, 0u);
  EXPECT_EQ(checkpointed.stats.sources_resumed, 0u);

  // One entry per non-cancelled source made it into the log.
  StatusOr<store::RecordReadResult> read = store::ReadRecordLog(ckpt_path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), checkpointed.sources.size() + 1);
}

TEST_F(CheckpointResumeTest, ResumeFromCompleteCheckpointRestoresEverything) {
  const FrameworkResult first =
      RunPipeline(CheckpointedOptions(/*resume=*/false));
  const FrameworkResult second =
      RunPipeline(CheckpointedOptions(/*resume=*/true));
  EXPECT_EQ(Digest(second), Digest(first));
  EXPECT_EQ(second.stats.sources_resumed, first.sources.size());
}

// The acceptance criterion: kill the run at every record boundary of the
// checkpoint log AND at torn offsets inside every record; resume must be
// bit-identical to the uninterrupted run, restoring exactly the sources
// the truncated log fully records.
TEST_F(CheckpointResumeTest, KillAndResumeAtEveryCrashPointIsBitIdentical) {
  const FrameworkResult uninterrupted =
      RunPipeline(CheckpointedOptions(/*resume=*/false));
  const RunDigest expected = Digest(uninterrupted);
  const std::string full = ReadFileBytes(ckpt_path_);
  const std::vector<size_t> boundaries = LogBoundaries(full);
  ASSERT_GE(boundaries.size(), 3u);  // magic + header + at least one entry

  std::vector<size_t> cuts;
  // Mid-magic and empty-file crashes (checkpoint unusable => fresh run).
  cuts.push_back(0);
  cuts.push_back(store::kRecordLogMagicLen / 2);
  for (size_t b = 0; b < boundaries.size(); ++b) {
    cuts.push_back(boundaries[b]);                      // clean kill point
    if (b + 1 < boundaries.size()) {
      cuts.push_back(boundaries[b] + 1);                // torn frame header
      const size_t next = boundaries[b + 1];
      cuts.push_back(boundaries[b] + (next - boundaries[b]) / 2);  // torn payload
      cuts.push_back(next - 1);                         // one byte short
    }
  }

  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    WriteFileBytes(ckpt_path_, full.substr(0, cut));

    const FrameworkResult resumed =
        RunPipeline(CheckpointedOptions(/*resume=*/true));
    EXPECT_EQ(Digest(resumed), expected);

    // The number of restored sources equals the number of complete entry
    // records in the truncated log (boundary index minus magic and header).
    size_t complete_records = 0;
    while (complete_records + 1 < boundaries.size() &&
           boundaries[complete_records + 1] <= cut) {
      ++complete_records;
    }
    const size_t expected_resumed =
        complete_records == 0 ? 0 : complete_records - 1;
    EXPECT_EQ(resumed.stats.sources_resumed, expected_resumed);

    // After the resumed run the log is complete again: it can seed yet
    // another resume (crash-during-resume is the same contract).
    const FrameworkResult resumed_again =
        RunPipeline(CheckpointedOptions(/*resume=*/true));
    EXPECT_EQ(Digest(resumed_again), expected);
    EXPECT_EQ(resumed_again.stats.sources_resumed,
              uninterrupted.sources.size());
  }
}

TEST_F(CheckpointResumeTest, AblationPathResumesBitIdentically) {
  const FrameworkResult uninterrupted = RunPipeline(
      CheckpointedOptions(/*resume=*/false, /*hierarchy=*/false));
  const RunDigest expected = Digest(uninterrupted);
  const std::string full = ReadFileBytes(ckpt_path_);
  const std::vector<size_t> boundaries = LogBoundaries(full);

  for (size_t b = 0; b < boundaries.size(); ++b) {
    SCOPED_TRACE("boundary=" + std::to_string(b));
    WriteFileBytes(ckpt_path_, full.substr(0, boundaries[b]));
    const FrameworkResult resumed = RunPipeline(
        CheckpointedOptions(/*resume=*/true, /*hierarchy=*/false));
    EXPECT_EQ(Digest(resumed), expected);
  }
}

TEST_F(CheckpointResumeTest, FingerprintMismatchStartsFresh) {
  FrameworkOptions fw = CheckpointedOptions(/*resume=*/false);
  fw.run_seed = 1;
  const FrameworkResult first = RunPipeline(fw);

  // Same checkpoint dir, different seed: the stored fingerprint no longer
  // matches, so nothing is resumed — but the run still succeeds and
  // rewrites the checkpoint for ITS fingerprint.
  FrameworkOptions other = CheckpointedOptions(/*resume=*/true);
  other.run_seed = 2;
  const FrameworkResult second = RunPipeline(other);
  EXPECT_EQ(second.stats.sources_resumed, 0u);
  // The seed only drives retry jitter, so the fault-free results agree.
  EXPECT_EQ(Digest(second), Digest(first));

  // And a third run WITH seed 2 resumes from the rewritten checkpoint.
  const FrameworkResult third = RunPipeline(other);
  EXPECT_EQ(third.stats.sources_resumed, second.sources.size());
  EXPECT_EQ(Digest(third), Digest(second));
}

TEST_F(CheckpointResumeTest, GarbageCheckpointFileStartsFresh) {
  const RunDigest plain = Digest(RunPipeline(FrameworkOptions{}));
  WriteFileBytes(ckpt_path_, "this is not a checkpoint log\n");
  const FrameworkResult resumed =
      RunPipeline(CheckpointedOptions(/*resume=*/true));
  EXPECT_EQ(Digest(resumed), plain);
  EXPECT_EQ(resumed.stats.sources_resumed, 0u);
}

TEST_F(CheckpointResumeTest, MissingCheckpointDirDisablesCheckpointing) {
  FrameworkOptions fw;
  fw.checkpoint_dir = dir_ + "/does_not_exist";
  const FrameworkResult result = RunPipeline(fw);
  // The run completes and reports the problem in stats instead of failing.
  EXPECT_EQ(Digest(result), Digest(RunPipeline(FrameworkOptions{})));
  EXPECT_GE(result.stats.checkpoint_write_errors, 1u);
}

#ifdef MIDAS_FAULT_INJECTION

TEST_F(CheckpointResumeTest, InjectedAppendFailureDisablesNotDerails) {
  const RunDigest plain = Digest(RunPipeline(FrameworkOptions{}));
  fault::ScopedFaultSpec armed("site=io_write_fail,rate=1,seed=3");
  const FrameworkResult result =
      RunPipeline(CheckpointedOptions(/*resume=*/false));
  EXPECT_EQ(Digest(result), plain);
  EXPECT_GE(result.stats.checkpoint_write_errors, 1u);
}

TEST_F(CheckpointResumeTest, TornAppendIsRecoveredByResume) {
  const RunDigest expected =
      Digest(RunPipeline(CheckpointedOptions(/*resume=*/false)));
  std::remove(ckpt_path_.c_str());

  // Tear exactly one checkpoint append somewhere mid-run (rate keyed by
  // "<path>#<index>", so which append tears is deterministic per seed),
  // then resume over the torn log.
  size_t write_errors = 0;
  {
    fault::ScopedFaultSpec armed(
        "site=io_torn_write,rate=0.2,seed=11,max_fires=1");
    const FrameworkResult torn_run =
        RunPipeline(CheckpointedOptions(/*resume=*/false));
    EXPECT_EQ(Digest(torn_run), expected);  // the run itself is unaffected
    write_errors = torn_run.stats.checkpoint_write_errors;
  }

  const FrameworkResult resumed =
      RunPipeline(CheckpointedOptions(/*resume=*/true));
  EXPECT_EQ(Digest(resumed), expected);
  if (write_errors > 0) {
    // The torn tail was discarded: the resumed run re-detected the torn
    // source and everything after it, and the log is whole again.
    StatusOr<store::RecordReadResult> read =
        store::ReadRecordLog(ckpt_path_);
    ASSERT_TRUE(read.ok());
    EXPECT_FALSE(read->tail_truncated);
    EXPECT_EQ(read->records.size(), resumed.sources.size() + 1);
  }
}

TEST_F(CheckpointResumeTest, ZeroRateIoSitesKeepBitIdentity) {
  const RunDigest plain = Digest(RunPipeline(FrameworkOptions{}));
  fault::ScopedFaultSpec armed(
      "site=io_write_fail,rate=0,seed=1;site=io_torn_write,rate=0,seed=1");
  const FrameworkResult result =
      RunPipeline(CheckpointedOptions(/*resume=*/false));
  EXPECT_EQ(Digest(result), plain);
  EXPECT_EQ(result.stats.checkpoint_write_errors, 0u);
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace core
}  // namespace midas
