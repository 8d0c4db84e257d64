#include "midas/util/logging.h"

#include <cstring>
#include <mutex>

namespace midas {

namespace {
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), fatal_(fatal) {
  enabled_ = fatal || level >= kMinLogLevel;
  if (enabled_) {
    stream_ << "[" << LevelName(level_) << " " << Basename(file) << ":"
            << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::cerr << stream_.str() << std::endl;
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace midas
