#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "midas/util/logging.h"
#include "midas/util/timer.h"

namespace midas {
namespace {

TEST(LoggingTest, LevelFiltering) {
  // Messages below kMinLogLevel are discarded; the rest reach stderr.
  ::testing::internal::CaptureStderr();
  MIDAS_LOG(Debug) << "hidden";
  MIDAS_LOG(Info) << "shown";
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("hidden"), std::string::npos) << out;
  EXPECT_NE(out.find("shown"), std::string::npos) << out;
}

TEST(LoggingTest, StreamingArbitraryTypes) {
  ::testing::internal::CaptureStderr();
  MIDAS_LOG(Info) << "int " << 42 << " double " << 1.5 << " ptr "
                  << static_cast<const void*>(nullptr);
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("int 42 double 1.5"), std::string::npos) << out;
}

TEST(CheckMacroTest, PassingChecksAreSilent) {
  MIDAS_CHECK(1 + 1 == 2) << "never evaluated";
  MIDAS_CHECK_EQ(3, 3);
  MIDAS_CHECK_NE(3, 4);
  MIDAS_CHECK_LT(3, 4);
  MIDAS_CHECK_LE(3, 3);
  MIDAS_CHECK_GT(4, 3);
  MIDAS_CHECK_GE(4, 4);
}

TEST(CheckMacroDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(MIDAS_CHECK(false) << "boom", "Check failed: false boom");
  EXPECT_DEATH(MIDAS_CHECK_EQ(1, 2), "Check failed");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double seconds = watch.ElapsedSeconds();
  EXPECT_GE(seconds, 0.015);
  EXPECT_LT(seconds, 5.0);
  EXPECT_NEAR(watch.ElapsedMillis(), watch.ElapsedSeconds() * 1e3,
              watch.ElapsedMillis() * 0.5);
}

TEST(StopwatchTest, ResetRestartsFromZero) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 0.015);
}

TEST(StopwatchTest, Monotonic) {
  Stopwatch watch;
  double a = watch.ElapsedSeconds();
  double b = watch.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(watch.ElapsedMicros(), 0u);
}

}  // namespace
}  // namespace midas
