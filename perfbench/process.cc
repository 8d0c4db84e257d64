#include "process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "midas/util/string_util.h"

extern char** environ;

namespace midas {
namespace perfbench {

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

int RemainingMs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (now >= deadline_ns) return 0;
  return static_cast<int>((deadline_ns - now) / 1000000 + 1);
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BecomeSubreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0); }

Child::~Child() {
  if (pid_ > 0) KillAndReap();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status Child::Start(const std::vector<std::string>& argv,
                    const std::string& stdout_path,
                    const std::string& stderr_path) {
  if (pid_ > 0) return Status::FailedPrecondition("child already running");
  int pipe_fds[2] = {-1, -1};
  if (stdout_path.empty() && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return ErrnoError("pipe2");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdout_path.empty()) {
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  // Its own process group, so a kill reaches forked dist workers too.
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);

  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  start_ns_ = NowNs();
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, args[0], &actions, &attr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  if (stdout_path.empty()) {
    ::close(pipe_fds[1]);
    if (rc != 0) ::close(pipe_fds[0]);
  }
  if (rc != 0) {
    errno = rc;
    return ErrnoError("posix_spawn " + argv[0]);
  }
  pid_ = pid;
  if (stdout_path.empty()) stdout_fd_ = pipe_fds[0];
  pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (pidfd_ < 0) {
    const Status status = ErrnoError("pidfd_open");
    KillAndReap();
    return status;
  }
  return Status::OK();
}

Status Child::ReadLineContaining(std::string_view needle, int timeout_ms,
                                 std::string* line) {
  if (stdout_fd_ < 0) return Status::FailedPrecondition("stdout is not a pipe");
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000;
  while (true) {
    size_t begin = 0;
    for (size_t end = pending_.find('\n'); end != std::string::npos;
         end = pending_.find('\n', begin)) {
      std::string_view candidate(pending_.data() + begin, end - begin);
      begin = end + 1;
      if (candidate.find(needle) != std::string_view::npos) {
        *line = std::string(candidate);
        pending_.erase(0, begin);
        return Status::OK();
      }
    }
    pending_.erase(0, begin);
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      return Status::Internal("timed out waiting for '" + std::string(needle) +
                              "' on the child's stdout");
    }
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Internal("child closed stdout before printing '" +
                              std::string(needle) + "'");
    }
    pending_.append(chunk, static_cast<size_t>(n));
  }
}

std::string Child::ReadRest() {
  std::string out = std::move(pending_);
  pending_.clear();
  if (stdout_fd_ < 0) return out;
  char chunk[4096];
  while (true) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 1000) <= 0) break;
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

void Child::Signal(int signal_number) {
  if (pid_ > 0) ::kill(pid_, signal_number);
}

Status Child::Wait(int timeout_ms, ExitInfo* info) {
  if (pid_ <= 0) return Status::FailedPrecondition("no child to wait for");
  pollfd pfd{pidfd_, POLLIN, 0};
  int ready = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000;
  do {
    ready = ::poll(&pfd, 1, RemainingMs(deadline));
  } while (ready < 0 && errno == EINTR);
  const uint64_t end_ns = NowNs();
  if (ready <= 0) {
    KillAndReap();
    return Status::Internal(StringPrintf("child did not exit within %d ms",
                                         timeout_ms));
  }
  int wstatus = 0;
  rusage usage{};
  pid_t reaped = -1;
  do {
    reaped = ::wait4(pid_, &wstatus, 0, &usage);
  } while (reaped < 0 && errno == EINTR);
  ::close(pidfd_);
  pidfd_ = -1;
  pid_ = -1;
  if (reaped < 0) return ErrnoError("wait4");
  info->exit_code = WIFEXITED(wstatus)     ? WEXITSTATUS(wstatus)
                    : WIFSIGNALED(wstatus) ? 128 + WTERMSIG(wstatus)
                                           : -1;
  info->wall_s = static_cast<double>(end_ns - start_ns_) / 1e9;
  info->cpu_s = Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
  info->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return Status::OK();
}

void Child::KillAndReap() {
  const pid_t group = pid_;
  ::kill(-group, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  // Group members whose parent died were re-parented to us (see
  // BecomeSubreaper); reap them too.
  while (::waitpid(-group, nullptr, 0) > 0 || errno == EINTR) {
  }
  if (pidfd_ >= 0) ::close(pidfd_);
  pidfd_ = -1;
  pid_ = -1;
}

Status RunCommand(const std::vector<std::string>& argv,
                  const std::string& stdout_path,
                  const std::string& stderr_path, int timeout_ms,
                  ExitInfo* info) {
  Child child;
  MIDAS_RETURN_IF_ERROR(child.Start(argv, stdout_path, stderr_path));
  return child.Wait(timeout_ms, info);
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status HttpClient::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return ErrnoError("socket");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    return ErrnoError(StringPrintf("connect 127.0.0.1:%u", port));
  }
  return Status::OK();
}

Status HttpClient::Fill(uint64_t deadline_ns) {
  pollfd pfd{fd_, POLLIN, 0};
  int ready = 0;
  do {
    ready = ::poll(&pfd, 1, RemainingMs(deadline_ns));
  } while (ready < 0 && errno == EINTR);
  if (ready <= 0) return Status::Internal("timed out reading the response");
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n < 0) return ErrnoError("recv");
  if (n == 0) return Status::IoError("server closed the connection");
  buffer_.append(chunk, static_cast<size_t>(n));
  return Status::OK();
}

Status HttpClient::Call(std::string_view method, std::string_view target,
                        std::string_view body, int timeout_ms,
                        HttpReply* reply) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000;
  std::string request = StringPrintf(
      "%.*s %.*s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
      "application/json\r\nContent-Length: %zu\r\n\r\n",
      static_cast<int>(method.size()), method.data(),
      static_cast<int>(target.size()), target.data(), body.size());
  request.append(body);
  for (size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoError("send");
    off += static_cast<size_t>(n);
  }
  ++requests_sent_;

  size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    MIDAS_RETURN_IF_ERROR(Fill(deadline));
  }
  const std::string head = buffer_.substr(0, header_end);
  buffer_.erase(0, header_end + 4);

  *reply = HttpReply{};
  size_t content_length = 0;
  bool close_after = false;
  const std::vector<std::string_view> lines = Split(head, '\n');
  if (lines.empty() || !StartsWith(lines[0], "HTTP/1.")) {
    return Status::Corruption("malformed status line");
  }
  const std::vector<std::string_view> status_parts = Split(Trim(lines[0]), ' ');
  int64_t status = 0;
  if (status_parts.size() < 2 || !ParseInt64(status_parts[1], &status)) {
    return Status::Corruption("malformed status line");
  }
  reply->status = static_cast<int>(status);
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t colon = lines[i].find(':');
    if (colon == std::string_view::npos) continue;
    const std::string name = ToLower(Trim(lines[i].substr(0, colon)));
    const std::string_view value = Trim(lines[i].substr(colon + 1));
    if (name == "content-length") {
      uint64_t length = 0;
      if (!ParseUint64(value, &length)) {
        return Status::Corruption("malformed content-length");
      }
      content_length = static_cast<size_t>(length);
    } else if (name == "x-midas-cache") {
      reply->cache = std::string(value);
    } else if (name == "connection") {
      close_after = ToLower(value) == "close";
    }
  }
  while (buffer_.size() < content_length) {
    MIDAS_RETURN_IF_ERROR(Fill(deadline));
  }
  reply->body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);
  if (close_after) {
    ::close(fd_);
    fd_ = -1;
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace midas
