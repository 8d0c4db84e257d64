#include "midas/dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "midas/core/consolidate.h"
#include "midas/dist/net.h"
#include "midas/dist/wire.h"
#include "midas/obs/obs.h"
#include "midas/util/logging.h"

namespace midas {
namespace dist {

namespace {

// Shared-registry handles via function-local statics (the test registry
// resets counters in place, so the pointers survive ResetAllForTest).
obs::Counter* AssignsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.assigns");
  return c;
}
obs::Counter* ResultsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.results");
  return c;
}
obs::Counter* ReassignsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.reassigns");
  return c;
}
obs::Counter* WorkerLossesCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.worker_losses");
  return c;
}
obs::Counter* WorkersLostCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.workers_lost");
  return c;
}
obs::Counter* RejoinsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.rejoins");
  return c;
}
obs::Counter* RespawnsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.respawns");
  return c;
}
obs::Counter* HeartbeatsCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.heartbeats");
  return c;
}
obs::Counter* UnitsFailedCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.units_failed");
  return c;
}
obs::Counter* RejectedWorkersCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.rejected_workers");
  return c;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DistCoordinator::DistCoordinator(const rdf::Dictionary* dict,
                                 DistOptions options)
    : dict_(dict), options_(std::move(options)) {
  // Resolved up front so the dist.* counters exist in /metricz even on runs
  // that never lose a worker.
  (void)AssignsCounter();
  (void)ResultsCounter();
  (void)ReassignsCounter();
  (void)WorkerLossesCounter();
  (void)WorkersLostCounter();
  (void)RejoinsCounter();
  (void)RespawnsCounter();
  (void)HeartbeatsCounter();
  (void)UnitsFailedCounter();
  (void)RejectedWorkersCounter();
}

DistCoordinator::~DistCoordinator() { Shutdown(); }

Status DistCoordinator::ForkWorker() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Status::IoError(std::string("socketpair failed: ") +
                           std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::IoError(std::string("fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop every coordinator-side fd it inherited (the parent end of
    // this pair, the listen socket, and every sibling's channel), then run
    // the worker loop on its own end. worker_main must not return control
    // to the forked framework state — _exit as a backstop.
    ::close(sv[0]);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (const auto& w : workers_) {
      if (w->channel.valid()) ::close(w->channel.fd());
    }
    options_.worker_main(sv[1]);
    ::_exit(0);
  }
  ::close(sv[1]);
  auto worker = std::make_unique<Worker>();
  worker->channel = FrameChannel(sv[0], "worker-" + std::to_string(pid));
  worker->pid = pid;
  worker->id = next_worker_id_++;
  worker->last_heard_ms = NowMs();
  Status status = worker->channel.SetNonBlocking();
  if (status.ok()) status = worker->channel.SendMagic();
  if (!status.ok()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return status;
  }
  workers_.push_back(std::move(worker));
  return Status::OK();
}

Status DistCoordinator::AcceptPending(std::string* error) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      *error = std::string("accept failed: ") + std::strerror(errno);
      return Status::IoError(*error);
    }
    auto worker = std::make_unique<Worker>();
    worker->id = next_worker_id_++;
    worker->channel = FrameChannel(
        fd, "ext-worker-" + std::to_string(worker->id), transport_);
    worker->last_heard_ms = NowMs();
    Status status = worker->channel.SetNonBlocking();
    if (status.ok()) status = worker->channel.SendMagic();
    if (!status.ok()) {
      MIDAS_LOG(Warning) << "dist: dropping new worker: " << status.message();
      continue;
    }
    workers_.push_back(std::move(worker));
  }
}

void DistCoordinator::FailUnit(size_t unit, const std::string& why,
                               std::vector<core::ShardTask>* tasks,
                               std::vector<core::ShardTaskResult>* results) {
  core::ShardTask& task = (*tasks)[unit];
  core::ShardTaskResult& res = (*results)[unit];
  res.status = core::SourceStatus::kFailed;
  res.attempts = 0;
  res.error = why;
  // Same shape as an in-process shard whose every detect attempt threw:
  // nothing detected, so consolidation keeps the children's slices.
  res.slices = task.consolidate
                      ? core::ConsolidateSlices({}, std::move(task.child_slices))
                      : std::vector<core::DiscoveredSlice>();
  res.has_raw = false;
  res.ran = true;
  ++stats_.units_failed;
  MIDAS_OBS_ADD(UnitsFailedCounter(), 1);
  MIDAS_LOG(Warning) << "dist: unit " << unit << " (" << task.url
                     << ") abandoned: " << why;
}

void DistCoordinator::LoseWorker(size_t widx, const std::string& why) {
  Worker& worker = *workers_[widx];
  MIDAS_LOG(Warning) << "dist: lost " << worker.channel.label() << ": " << why;
  ++stats_.worker_losses;
  MIDAS_OBS_ADD(WorkerLossesCounter(), 1);
  if (worker.inflight_unit >= 0) {
    queue_.push_back(static_cast<size_t>(worker.inflight_unit));
    worker.inflight_unit = -1;
    worker.inflight_assignment = 0;
    ++stats_.reassigns;
    MIDAS_OBS_ADD(ReassignsCounter(), 1);
  }
  worker.channel = FrameChannel();
  if (worker.pid > 0) {
    // The child may still be alive (a liveness-declared loss of a stalled
    // process): kill first so the reap below is finite. Harmless when the
    // loss was its death in the first place.
    ::kill(worker.pid, SIGKILL);
    ::waitpid(worker.pid, nullptr, 0);
    worker.pid = -1;
    // Keep the pool at strength so a crash matrix that kills every worker
    // still finishes the round.
    if (options_.num_workers > 0 &&
        respawns_used_ < options_.worker_respawn_limit) {
      ++respawns_used_;
      const Status status = ForkWorker();
      if (status.ok()) {
        ++stats_.respawns;
        MIDAS_OBS_ADD(RespawnsCounter(), 1);
      } else {
        MIDAS_LOG(Warning) << "dist: respawn failed: " << status.message();
      }
    }
  }
}

void DistCoordinator::SweepLiveness() {
  if (options_.worker_liveness_ms <= 0) return;
  const int64_t now = NowMs();
  // Index loop: a respawn inside LoseWorker push_backs into workers_. The
  // replacement's last_heard is `now`, so it is not swept this pass.
  for (size_t widx = 0; widx < workers_.size(); ++widx) {
    const Worker& worker = *workers_[widx];
    if (!worker.channel.valid()) continue;
    const int64_t silent_ms = now - worker.last_heard_ms;
    if (silent_ms < options_.worker_liveness_ms) continue;
    // Silent past the deadline: a half-open connection, a stopped process,
    // or a partition — none of which ever deliver an EOF.
    ++stats_.workers_lost;
    MIDAS_OBS_ADD(WorkersLostCounter(), 1);
    LoseWorker(widx, "liveness deadline exceeded: no frame for " +
                         std::to_string(silent_ms) + " ms");
  }
}

bool DistCoordinator::SendAssign(size_t widx, size_t unit, uint32_t assignment,
                                 std::vector<core::ShardTask>* tasks) {
  Worker* worker = workers_[widx].get();
  const core::ShardTask& task = (*tasks)[unit];
  WorkAssignMsg msg;
  msg.unit = unit;
  msg.assignment = assignment;
  msg.consolidate = task.consolidate;
  msg.url = task.url;
  msg.source_ids = task.source_ids;
  msg.child_slices = task.child_slices;
  const Status status = worker->channel.WriteFrame(EncodeWorkAssign(msg, *dict_));
  if (!status.ok()) {
    LoseWorker(widx, status.message());
    return false;
  }
  worker->inflight_unit = static_cast<int64_t>(unit);
  worker->inflight_assignment = assignment;
  return true;
}

Status DistCoordinator::Listen() {
  if (listen_fd_ >= 0) return Status::OK();
  if (options_.listen_path.empty()) {
    return Status::InvalidArgument(
        "DistOptions needs num_workers (self-fork) or listen_path (external)");
  }
  if (IsTcpAddress(options_.listen_path)) {
    StatusOr<int> fd = ListenTcp(options_.listen_path, 64);
    if (!fd.ok()) return fd.status();
    listen_fd_ = *fd;
    transport_ = Transport::kTcp;
    StatusOr<uint16_t> port = BoundTcpPort(listen_fd_);
    if (!port.ok()) return port.status();
    listen_port_ = *port;
    MIDAS_LOG(Info) << "dist: listening on tcp " << options_.listen_path
                    << " (port " << listen_port_ << ")";
    return Status::OK();
  }
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (options_.listen_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("listen_path too long: " +
                                   options_.listen_path);
  }
  std::strncpy(addr.sun_path, options_.listen_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  ::unlink(options_.listen_path.c_str());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const Status status = Status::IoError(
        "bind/listen failed for '" + options_.listen_path + "': " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  listen_fd_ = fd;
  transport_ = Transport::kUnix;
  return Status::OK();
}

Status DistCoordinator::Start() {
  if (started_) return Status::FailedPrecondition("coordinator already started");
  const bool self_fork = options_.num_workers > 0;
  if (self_fork) {
    if (!options_.worker_main) {
      return Status::InvalidArgument("num_workers set without worker_main");
    }
    for (size_t i = 0; i < options_.num_workers; ++i) {
      MIDAS_RETURN_IF_ERROR(ForkWorker());
    }
  } else {
    MIDAS_RETURN_IF_ERROR(Listen());
  }
  started_ = true;

  // Wait for Hellos: min_workers of them in external mode; in self-fork
  // mode one from every live forked worker, so the first round can
  // schedule each of them (a worker that never said Hello gets no unit).
  const int64_t deadline = NowMs() + options_.accept_timeout_ms;
  for (;;) {
    size_t ready = 0;
    size_t pending = 0;
    for (const auto& w : workers_) {
      if (w->hello_ok) {
        ++ready;
      } else if (w->channel.valid()) {
        ++pending;
      }
    }
    if (self_fork ? pending == 0 : ready >= options_.min_workers) {
      // Hellos arriving from here on are late joins / rejoins, admitted
      // against the respawn budget.
      accepting_midrun_ = true;
      return Status::OK();
    }
    const int64_t left = deadline - NowMs();
    if (left <= 0) {
      return Status::IoError(
          self_fork ? "timed out waiting for " + std::to_string(pending) +
                          " forked worker Hello(s)"
                    : "timed out waiting for " +
                          std::to_string(options_.min_workers) +
                          " workers on '" + options_.listen_path + "'");
    }
    PollOnce(nullptr, nullptr, static_cast<int>(std::min<int64_t>(left, 200)));
  }
}

void DistCoordinator::Shutdown() {
  for (auto& worker : workers_) {
    if (worker->channel.valid()) {
      (void)worker->channel.WriteFrame(EncodeShutdown());
      worker->channel = FrameChannel();
    }
    if (worker->pid > 0) {
      ::waitpid(worker->pid, nullptr, 0);
      worker->pid = -1;
    }
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (transport_ == Transport::kUnix) {
      ::unlink(options_.listen_path.c_str());
    }
  }
  started_ = false;
  accepting_midrun_ = false;
}

std::vector<pid_t> DistCoordinator::worker_pids() const {
  std::vector<pid_t> pids;
  for (const auto& worker : workers_) {
    if (worker->pid > 0) pids.push_back(worker->pid);
  }
  return pids;
}

size_t DistCoordinator::live_workers() const {
  size_t n = 0;
  for (const auto& worker : workers_) {
    if (worker->channel.valid()) ++n;
  }
  return n;
}

void DistCoordinator::PollOnce(std::vector<core::ShardTask>* tasks,
                               std::vector<core::ShardTaskResult>* results,
                               int timeout_ms) {
  std::vector<struct pollfd> pfds;
  std::vector<size_t> pfd_worker;  // workers_ index per pollfd
  pfds.reserve(workers_.size() + 1);
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i]->channel.valid()) continue;
    struct pollfd pfd = {};
    pfd.fd = workers_[i]->channel.fd();
    pfd.events = POLLIN;
    pfds.push_back(pfd);
    pfd_worker.push_back(i);
  }
  if (listen_fd_ >= 0) {
    struct pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfds.push_back(pfd);
  }
  if (pfds.empty()) return;
  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc <= 0) return;

  if (listen_fd_ >= 0 && (pfds.back().revents & POLLIN) != 0) {
    std::string error;
    (void)AcceptPending(&error);
  }

  for (size_t p = 0; p < pfd_worker.size(); ++p) {
    if (pfds[p].revents == 0) continue;
    const size_t widx = pfd_worker[p];
    Worker& worker = *workers_[widx];
    if (!worker.channel.valid()) continue;  // lost earlier this sweep
    std::string error;
    const FrameChannel::Read read = worker.channel.ReadAvailable(&error);
    if (read == FrameChannel::Read::kError) {
      LoseWorker(widx, error);
      continue;
    }
    // Drain every complete frame (EOF handling falls out of PopFrame).
    for (;;) {
      std::string payload;
      const FrameChannel::Read popped = worker.channel.PopFrame(&payload, &error);
      if (popped == FrameChannel::Read::kNeedMore) break;
      if (popped == FrameChannel::Read::kEof) {
        LoseWorker(widx, "peer closed");
        break;
      }
      if (popped == FrameChannel::Read::kCorrupt) {
        LoseWorker(widx, "corrupt stream: " + error);
        break;
      }
      if (!DispatchFrame(widx, payload, tasks, results)) break;
    }
  }
}

void DistCoordinator::RejectWorker(size_t widx, const std::string& why) {
  Worker& worker = *workers_[widx];
  MIDAS_LOG(Warning) << "dist: rejecting " << worker.channel.label() << ": "
                     << why;
  ++stats_.rejected_workers;
  MIDAS_OBS_ADD(RejectedWorkersCounter(), 1);
  (void)worker.channel.WriteFrame(EncodeShutdown());
  worker.channel = FrameChannel();
  if (worker.pid > 0) {
    ::waitpid(worker.pid, nullptr, 0);
    worker.pid = -1;
  }
}

bool DistCoordinator::DispatchFrame(size_t widx, const std::string& payload,
                                    std::vector<core::ShardTask>* tasks,
                                    std::vector<core::ShardTaskResult>* results) {
  Worker& worker = *workers_[widx];
  // Any delivered frame proves the worker (and the path to it) alive. Raw
  // bytes do not count: a net_partition discards frames in PopFrame, and a
  // partitioned worker must look silent to the liveness sweep.
  worker.last_heard_ms = NowMs();
  const StatusOr<MessageKind> kind = PeekKind(payload);
  if (!kind.ok()) {
    LoseWorker(widx, kind.status().message());
    return false;
  }
  switch (*kind) {
    case MessageKind::kHello: {
      HelloMsg hello;
      const Status status = DecodeHello(payload, &hello);
      if (!status.ok()) {
        LoseWorker(widx, status.message());
        return false;
      }
      // Wrong protocol, or a worker that loaded a different corpus, seed,
      // mode or detector: its results could not be bit-identical, so it
      // never joins.
      if (hello.protocol != kDistProtocolVersion) {
        RejectWorker(widx, "protocol " + std::to_string(hello.protocol) +
                               " (this coordinator speaks " +
                               std::to_string(kDistProtocolVersion) + ")");
        return false;
      }
      if (options_.fingerprint != 0 &&
          hello.fingerprint != options_.fingerprint) {
        RejectWorker(widx, "run fingerprint mismatch (different corpus, "
                           "seed, mode or detector)");
        return false;
      }
      if (worker.pid <= 0 && accepting_midrun_) {
        // External worker joining (or REjoining after a loss) after Start():
        // admitted against the same budget that caps fork-mode respawns, so
        // a flapping worker cannot grind the round forever.
        if (respawns_used_ >= options_.worker_respawn_limit) {
          RejectWorker(widx, "rejoin budget exhausted (worker_respawn_limit " +
                                 std::to_string(options_.worker_respawn_limit) +
                                 ")");
          return false;
        }
        ++respawns_used_;
        ++stats_.rejoins;
        MIDAS_OBS_ADD(RejoinsCounter(), 1);
        MIDAS_LOG(Info) << "dist: " << worker.channel.label()
                        << " joined mid-run (" << respawns_used_ << "/"
                        << options_.worker_respawn_limit << " admissions used)";
      }
      worker.hello_ok = true;
      return true;
    }
    case MessageKind::kHeartbeat: {
      HeartbeatMsg beat;
      if (!DecodeHeartbeat(payload, &beat).ok()) {
        LoseWorker(widx, "malformed heartbeat");
        return false;
      }
      ++stats_.heartbeats;
      MIDAS_OBS_ADD(HeartbeatsCounter(), 1);
      return true;
    }
    case MessageKind::kWorkResult: {
      if (tasks == nullptr || results == nullptr) {
        LoseWorker(widx, "work result outside a round");
        return false;
      }
      WorkResultMsg msg;
      const Status status = DecodeWorkResult(payload, *dict_, &msg);
      if (!status.ok()) {
        LoseWorker(widx, status.message());
        return false;
      }
      if (worker.inflight_unit < 0 ||
          msg.unit != static_cast<uint64_t>(worker.inflight_unit) ||
          msg.assignment != worker.inflight_assignment) {
        LoseWorker(widx, "work result for a unit/assignment it does not own");
        return false;
      }
      // The worker holds this unit, assigned this round, and no other
      // worker holds a copy: the result is the unit's one answer.
      const size_t unit = static_cast<size_t>(msg.unit);
      worker.inflight_unit = -1;
      worker.inflight_assignment = 0;
      core::ShardTaskResult& res = (*results)[unit];
      {
        // Span per completed shard, so dist runs keep the "every processed
        // source has a framework.source span" invariant in this process.
        MIDAS_OBS_SPAN(source_span, "framework.source", (*tasks)[unit].url);
      }
      res.status = msg.status;
      res.attempts = msg.attempts;
      res.error = std::move(msg.error);
      res.slices = std::move(msg.slices);
      res.has_raw = false;  // workers ship survivors only; memo skips them
      res.ran = true;
      ++units_done_;
      --units_remaining_;
      ++stats_.results;
      MIDAS_OBS_ADD(ResultsCounter(), 1);
      if (options_.on_unit_done) options_.on_unit_done(units_done_);
      return true;
    }
    case MessageKind::kWorkAssign:
    case MessageKind::kShutdown:
      LoseWorker(widx, "unexpected coordinator-bound message kind");
      return false;
  }
  return false;
}

void DistCoordinator::ExecuteRound(const core::ShardExecutionContext& ctx,
                                   std::vector<core::ShardTask>* tasks,
                                   std::vector<core::ShardTaskResult>* results) {
  queue_.clear();
  unit_assignment_.assign(tasks->size(), 0);
  units_done_ = 0;
  units_remaining_ = 0;
  // Only a cancelled round returns with units in flight, and that round is
  // the executor's last (core::ShardExecutor).
  for (const auto& w : workers_) MIDAS_CHECK(w->inflight_unit < 0);
  for (size_t i = 0; i < tasks->size(); ++i) {
    if ((*tasks)[i].facts == nullptr) continue;  // restored/skipped shard
    queue_.push_back(i);
    ++units_remaining_;
  }

  const auto cancelled = [&ctx] {
    return ctx.cancel != nullptr && ctx.cancel->Expired();
  };

  while (units_remaining_ > 0) {
    if (cancelled()) break;  // unpicked units stay ran = false

    // Assign queued units to idle, hello'd workers. Index loop + stable
    // Worker pointers: a respawn inside LoseWorker push_backs into
    // workers_, which would invalidate range-for references.
    for (size_t widx = 0; widx < workers_.size(); ++widx) {
      Worker* worker = workers_[widx].get();
      if (!worker->channel.valid() || !worker->hello_ok ||
          worker->inflight_unit >= 0) {
        continue;
      }
      while (!queue_.empty()) {
        const size_t unit = queue_.back();
        queue_.pop_back();
        const uint32_t assignment = ++unit_assignment_[unit];
        if (assignment > options_.max_unit_assignments) {
          FailUnit(unit,
                   "worker lost " + std::to_string(assignment - 1) +
                       " times (max_unit_assignments)",
                   tasks, results);
          --units_remaining_;
          continue;
        }
        if (!SendAssign(widx, unit, assignment, tasks)) {
          // The unit was never delivered: requeue it directly, burning
          // neither an assignment nor a reassign (those count deliveries,
          // keeping assigns == results + reassigns exact).
          --unit_assignment_[unit];
          queue_.push_back(unit);
          break;
        }
        ++stats_.assigns;
        MIDAS_OBS_ADD(AssignsCounter(), 1);
        break;  // one in-flight unit per worker
      }
    }

    // No one left to run the work and no one will ever join: abandon the
    // queue instead of spinning forever.
    const bool can_gain_workers =
        listen_fd_ >= 0 || (options_.num_workers > 0 &&
                            respawns_used_ < options_.worker_respawn_limit);
    if (live_workers() == 0 && !can_gain_workers) {
      while (!queue_.empty()) {
        const size_t unit = queue_.back();
        queue_.pop_back();
        FailUnit(unit, "no workers available", tasks, results);
        --units_remaining_;
      }
      break;
    }

    PollOnce(tasks, results, options_.poll_interval_ms);

    SweepLiveness();

    // Drop dead worker slots once per sweep (safe: nothing holds indices
    // across this point).
    std::erase_if(workers_, [](const std::unique_ptr<Worker>& w) {
      return !w->channel.valid() && w->pid <= 0;
    });
  }
  // One greppable line per round: dist_smoke.sh divides bytes_sent by
  // assigns to pin the per-unit assignment size, and operators get the
  // wire totals without scraping /metricz.
  MIDAS_LOG(Info) << "dist: round complete units_done=" << units_done_
                  << " assigns=" << stats_.assigns
                  << " bytes_sent=" << FrameChannel::TotalBytesSent()
                  << " bytes_received=" << FrameChannel::TotalBytesReceived();
}

}  // namespace dist
}  // namespace midas
