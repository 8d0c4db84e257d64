// Per-test scratch directories, so test cases can run concurrently.

#ifndef MIDAS_TESTS_COMMON_TEST_DIR_H_
#define MIDAS_TESTS_COMMON_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace midas {
namespace tests {

namespace internal {

/// Removes the directories TestDir() created once the creating process
/// exits normally. Forked children (another pid) leave them alone.
struct TestDirCleanup {
  pid_t owner = ::getpid();
  std::vector<std::string> dirs;

  ~TestDirCleanup() {
    if (::getpid() != owner) return;
    std::error_code ignored;
    for (const std::string& dir : dirs) {
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

}  // namespace internal

/// A directory private to the running test case and process:
/// <TempDir>/midas_<Suite>.<Test>_<pid>, created on first use and removed
/// at process exit. `ctest -j` runs every case as its own process, all
/// sharing ::testing::TempDir(), so fixed file names there collide; paths
/// under TestDir() cannot. Repeated calls within one test return the same
/// directory.
inline std::string TestDir() {
  static internal::TestDirCleanup cleanup;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  // Parameterized names carry '/' separators.
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string dir = ::testing::TempDir() + "/midas_" + name + "_" +
                          std::to_string(::getpid());
  if (std::filesystem::create_directories(dir)) cleanup.dirs.push_back(dir);
  return dir;
}

}  // namespace tests
}  // namespace midas

#endif  // MIDAS_TESTS_COMMON_TEST_DIR_H_
