#ifndef MIDAS_PERFBENCH_PROCESS_H_
#define MIDAS_PERFBENCH_PROCESS_H_

// Child-process and loopback-HTTP plumbing for midas_bench: every
// end-to-end number is taken from outside the program, so the benchmark
// spawns the `midas` CLI, times it with the parent's clock, reads its cost
// from wait4(), and talks to `midas serve` over a real socket.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "midas/util/status.h"

namespace midas {
namespace perfbench {

/// steady_clock in nanoseconds.
uint64_t NowNs();

/// How a child process ended and what it cost, measured from outside it.
struct ExitInfo {
  /// Exit status, or 128 + signal number when a signal ended it.
  int exit_code = -1;
  /// Spawn to exit, on the parent's clock.
  double wall_s = 0;
  /// User + system time of the child and every descendant it reaped
  /// (forked dist workers included).
  double cpu_s = 0;
  /// Peak resident set of that process tree (wait4's ru_maxrss).
  double peak_rss_mb = 0;
};

/// Makes this process the reaper of orphaned descendants, so a killed
/// child's own children (dist workers) can still be waited for.
void BecomeSubreaper();

/// A child process running in its own process group. The destructor kills
/// the group and reaps it when the child was not waited for, so no error
/// path leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` (argv[0] is a path). Stdout goes to `stdout_path`, or to
  /// a pipe read with ReadLineContaining/ReadRest when it is empty; stderr
  /// is appended to `stderr_path`.
  Status Start(const std::vector<std::string>& argv,
               const std::string& stdout_path,
               const std::string& stderr_path);

  /// Reads the stdout pipe until a complete line contains `needle`.
  Status ReadLineContaining(std::string_view needle, int timeout_ms,
                            std::string* line);

  /// Everything left on the stdout pipe, up to EOF (call after Wait).
  std::string ReadRest();

  void Signal(int signal_number);

  /// Waits for the child to exit. On timeout the process group is killed
  /// and reaped, and an error is returned.
  Status Wait(int timeout_ms, ExitInfo* info);

 private:
  void KillAndReap();

  pid_t pid_ = -1;
  int pidfd_ = -1;
  int stdout_fd_ = -1;
  uint64_t start_ns_ = 0;
  std::string pending_;  // pipe bytes read past the last returned line
};

/// Runs `argv` to completion; stdout to `stdout_path`, stderr appended to
/// `stderr_path`.
Status RunCommand(const std::vector<std::string>& argv,
                  const std::string& stdout_path,
                  const std::string& stderr_path, int timeout_ms,
                  ExitInfo* info);

struct HttpReply {
  int status = 0;
  /// The X-Midas-Cache header ("hit", "miss", "skip"), empty if absent.
  std::string cache;
  std::string body;
};

/// One keep-alive HTTP/1.1 connection to a loopback server, used by a
/// closed-loop client: each call sends one request and reads the whole
/// response before returning.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  Status Connect(uint16_t port);
  Status Call(std::string_view method, std::string_view target,
              std::string_view body, int timeout_ms, HttpReply* reply);

  /// Requests written to the server over this connection.
  size_t requests_sent() const { return requests_sent_; }

 private:
  Status Fill(uint64_t deadline_ns);

  int fd_ = -1;
  std::string buffer_;
  size_t requests_sent_ = 0;
};

}  // namespace perfbench
}  // namespace midas

#endif  // MIDAS_PERFBENCH_PROCESS_H_
