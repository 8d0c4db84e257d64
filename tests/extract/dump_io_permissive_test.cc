// LoadDump strict-vs-permissive contract: strict aborts on the first
// malformed row (historical behavior), permissive quarantines malformed
// rows — counted in LoadStats and the extract.rows_quarantined counter —
// and still loads every well-formed row.

#include "midas/extract/dump_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/test_dir.h"
#include "midas/fault/fault.h"
#include "midas/obs/metrics.h"

namespace midas {
namespace extract {
namespace {

class DumpIoPermissiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/dump.tsv";
    std::remove(path_.c_str());
#ifndef MIDAS_OBS_NOOP
    obs::Registry::Global().ResetAllForTest();
#endif
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    std::remove(path_.c_str());
  }

  void WriteDump(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
    ASSERT_TRUE(static_cast<bool>(out));
  }

  // Two malformed rows (wrong field count, bad confidence) between three
  // good ones.
  void WriteMixedDump() {
    WriteDump(
        "# comment line\n"
        "http://x.com/a\tAtlas\tsponsor\tNASA\t0.95\n"
        "http://x.com/a\tAtlas\tstarted\n"  // 3 fields, not 5
        "http://x.com/a\tAtlas\tstarted\t1957\t0.72\n"
        "http://x.com/b\tCastor-4\tsponsor\tNASA\tnot-a-number\n"
        "http://x.com/b\tCastor-4\tkind\trocket\t0.8\n");
  }

  std::string path_;
};

TEST_F(DumpIoPermissiveTest, StrictModeAbortsOnFirstMalformedRow) {
  WriteMixedDump();
  ExtractionDump dump;
  LoadStats stats;
  const Status status = LoadDump(path_, LoadOptions{}, &dump, &stats);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(stats.rows_quarantined, 0u);
}

TEST_F(DumpIoPermissiveTest, TwoArgOverloadStaysStrict) {
  WriteMixedDump();
  ExtractionDump dump;
  EXPECT_EQ(LoadDump(path_, &dump).code(), StatusCode::kCorruption);
}

TEST_F(DumpIoPermissiveTest, PermissiveModeQuarantinesAndLoadsTheRest) {
  WriteMixedDump();
  ExtractionDump dump;
  LoadStats stats;
  LoadOptions options;
  options.strict = false;
  ASSERT_TRUE(LoadDump(path_, options, &dump, &stats).ok());
  EXPECT_EQ(stats.rows_loaded, 3u);
  EXPECT_EQ(stats.rows_quarantined, 2u);
  ASSERT_EQ(dump.facts.size(), 3u);
  EXPECT_EQ(dump.dict->Term(dump.facts[0].triple.subject), "Atlas");
  EXPECT_EQ(dump.dict->Term(dump.facts[2].triple.object), "rocket");
  EXPECT_DOUBLE_EQ(dump.facts[1].confidence, 0.72);

#ifndef MIDAS_OBS_NOOP
  const obs::Counter* c =
      obs::Registry::Global().FindCounter("extract.rows_quarantined");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 2u);
#endif
}

TEST_F(DumpIoPermissiveTest, PermissiveCleanDumpQuarantinesNothing) {
  WriteDump("http://x.com/a\tAtlas\tsponsor\tNASA\t0.95\n");
  ExtractionDump dump;
  LoadStats stats;
  LoadOptions options;
  options.strict = false;
  ASSERT_TRUE(LoadDump(path_, options, &dump, &stats).ok());
  EXPECT_EQ(stats.rows_loaded, 1u);
  EXPECT_EQ(stats.rows_quarantined, 0u);
}

TEST_F(DumpIoPermissiveTest, OutOfRangeConfidenceIsMalformed) {
  WriteDump(
      "http://x.com/a\tAtlas\tsponsor\tNASA\t1.5\n"
      "http://x.com/a\tAtlas\tstarted\t1957\t-0.1\n"
      "http://x.com/a\tAtlas\tkind\trocket\t0.9\n");
  ExtractionDump dump;
  LoadStats stats;
  LoadOptions options;
  options.strict = false;
  ASSERT_TRUE(LoadDump(path_, options, &dump, &stats).ok());
  EXPECT_EQ(stats.rows_loaded, 1u);
  EXPECT_EQ(stats.rows_quarantined, 2u);
}

#ifdef MIDAS_FAULT_INJECTION

TEST_F(DumpIoPermissiveTest, InjectedCorruptRecordsAreQuarantined) {
  WriteDump(
      "http://x.com/a\tAtlas\tsponsor\tNASA\t0.95\n"
      "http://x.com/a\tAtlas\tstarted\t1957\t0.72\n"
      "http://x.com/b\tCastor-4\tkind\trocket\t0.8\n");
  fault::ScopedFaultSpec armed("site=dump_record,rate=1,seed=1");

  ExtractionDump strict_dump;
  EXPECT_EQ(LoadDump(path_, &strict_dump).code(), StatusCode::kCorruption);

  ExtractionDump dump;
  LoadStats stats;
  LoadOptions options;
  options.strict = false;
  ASSERT_TRUE(LoadDump(path_, options, &dump, &stats).ok());
  EXPECT_EQ(stats.rows_loaded, 0u);
  EXPECT_EQ(stats.rows_quarantined, 3u);
  EXPECT_TRUE(dump.facts.empty());
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace extract
}  // namespace midas
