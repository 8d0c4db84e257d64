#ifndef MIDAS_UTIL_LOGGING_H_
#define MIDAS_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace midas {

/// Log severities, in increasing order.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Minimum severity; messages below it are discarded.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal {

/// Stream-style log line; emits on destruction. If `fatal`, aborts the
/// process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace midas

/// Stream-style logging macros: MIDAS_LOG(INFO) << "...";
#define MIDAS_LOG(severity)                                           \
  ::midas::internal::LogMessage(::midas::LogLevel::k##severity,       \
                                __FILE__, __LINE__)

/// Assertion macro active in all build types. On failure logs the condition
/// and aborts. Use for internal invariants, not for user-input validation
/// (validation returns Status).
#define MIDAS_CHECK(condition)                                            \
  if (!(condition))                                                       \
  ::midas::internal::LogMessage(::midas::LogLevel::kError, __FILE__,      \
                                __LINE__, /*fatal=*/true)                 \
      << "Check failed: " #condition " "

/// Debug-only assertion: active when NDEBUG is not defined, compiled to
/// nothing (condition unevaluated) in release builds. Use on hot paths
/// where an always-on MIDAS_CHECK would cost; keep MIDAS_CHECK for cold
/// invariants.
#ifndef NDEBUG
#define MIDAS_DCHECK(condition) MIDAS_CHECK(condition)
#else
#define MIDAS_DCHECK(condition) \
  if (false) MIDAS_CHECK(condition)
#endif

#define MIDAS_CHECK_EQ(a, b) MIDAS_CHECK((a) == (b))
#define MIDAS_CHECK_NE(a, b) MIDAS_CHECK((a) != (b))
#define MIDAS_CHECK_LE(a, b) MIDAS_CHECK((a) <= (b))
#define MIDAS_CHECK_LT(a, b) MIDAS_CHECK((a) < (b))
#define MIDAS_CHECK_GE(a, b) MIDAS_CHECK((a) >= (b))
#define MIDAS_CHECK_GT(a, b) MIDAS_CHECK((a) > (b))

#endif  // MIDAS_UTIL_LOGGING_H_
