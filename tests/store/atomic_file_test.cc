// Atomic-write contract: readers observe the old file or the complete new
// file, never a torn prefix; injected I/O faults fail the call without
// touching the destination.

#include "midas/store/atomic_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/test_dir.h"
#include "midas/fault/fault.h"

namespace midas {
namespace store {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool Exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/atomic.txt";
    std::remove(path_.c_str());
    std::remove(AtomicTempPath(path_).c_str());
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    std::remove(path_.c_str());
    std::remove(AtomicTempPath(path_).c_str());
  }

  std::string path_;
};

TEST_F(AtomicFileTest, WritesAndReplaces) {
  ASSERT_TRUE(AtomicWriteFile(path_, "first contents\n").ok());
  EXPECT_EQ(ReadFile(path_), "first contents\n");

  ASSERT_TRUE(AtomicWriteFile(path_, "second, longer contents\n").ok());
  EXPECT_EQ(ReadFile(path_), "second, longer contents\n");

  // No staging file left behind after a successful swap.
  EXPECT_FALSE(Exists(AtomicTempPath(path_)));
}

TEST_F(AtomicFileTest, HandlesEmptyAndBinaryContents) {
  ASSERT_TRUE(AtomicWriteFile(path_, "").ok());
  EXPECT_EQ(ReadFile(path_), "");

  const std::string binary("a\0b\xff\n\r\t", 7);
  ASSERT_TRUE(AtomicWriteFile(path_, binary).ok());
  EXPECT_EQ(ReadFile(path_), binary);
}

TEST_F(AtomicFileTest, FailsWhenParentDirectoryMissing) {
  const std::string bad = tests::TestDir() + "/no_such_dir/x.txt";
  const Status status = AtomicWriteFile(bad, "contents");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(AtomicFileTest, ParentDirHelper) {
  EXPECT_EQ(ParentDir("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(ParentDir("/c.txt"), "/");
  EXPECT_EQ(ParentDir("c.txt"), ".");
}

#ifdef MIDAS_FAULT_INJECTION

TEST_F(AtomicFileTest, InjectedWriteFailLeavesDestinationUntouched) {
  ASSERT_TRUE(AtomicWriteFile(path_, "survivor\n").ok());

  fault::ScopedFaultSpec armed("site=io_write_fail,rate=1,seed=1");
  const Status status = AtomicWriteFile(path_, "never lands\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFile(path_), "survivor\n");
  EXPECT_FALSE(Exists(AtomicTempPath(path_)));
}

TEST_F(AtomicFileTest, InjectedTornWriteLeavesTornTempAndOldDestination) {
  ASSERT_TRUE(AtomicWriteFile(path_, "survivor\n").ok());

  const std::string payload = "this write will be torn mid-way\n";
  fault::ScopedFaultSpec armed("site=io_torn_write,rate=1,seed=7");
  const Status status = AtomicWriteFile(path_, payload);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // Destination untouched: the rename never happened.
  EXPECT_EQ(ReadFile(path_), "survivor\n");
  // The torn temp file is the simulated crash state: a strict prefix of
  // the payload at the deterministic seeded offset.
  ASSERT_TRUE(Exists(AtomicTempPath(path_)));
  const std::string torn = ReadFile(AtomicTempPath(path_));
  EXPECT_LE(torn.size(), payload.size());
  EXPECT_EQ(torn, payload.substr(0, torn.size()));
  const uint64_t expected_len = fault::FaultInjector::Global().DrawOffset(
      fault::kSiteIoTornWrite, path_, payload.size() + 1);
  EXPECT_EQ(torn.size(), expected_len);
}

TEST_F(AtomicFileTest, ZeroRateArmedSitesAreInert) {
  fault::ScopedFaultSpec armed(
      "site=io_write_fail,rate=0,seed=1;site=io_torn_write,rate=0,seed=1");
  ASSERT_TRUE(AtomicWriteFile(path_, "written normally\n").ok());
  EXPECT_EQ(ReadFile(path_), "written normally\n");
  EXPECT_FALSE(Exists(AtomicTempPath(path_)));
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace store
}  // namespace midas
