#include "midas/dist/channel.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "midas/dist/net.h"
#include "midas/fault/fault.h"
#include "midas/obs/obs.h"

namespace midas {
namespace dist {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& label) {
  return what + " (peer " + label + "): " + std::strerror(errno);
}

// Process-wide transport totals, relaxed: counted from whichever thread
// touches a channel (the worker's heartbeat thread writes concurrently with
// nothing, but the accessors may race a write — totals, not a protocol).
// Mirrored into dist.* counters so /metricz shows them without new plumbing.
std::atomic<uint64_t> g_bytes_sent{0};
std::atomic<uint64_t> g_bytes_received{0};

obs::Counter* BytesSentCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.bytes_sent");
  return c;
}
obs::Counter* BytesReceivedCounter() {
  static obs::Counter* c = MIDAS_OBS_COUNTER("dist.bytes_received");
  return c;
}

void CountSent(size_t n) {
  g_bytes_sent.fetch_add(n, std::memory_order_relaxed);
  MIDAS_OBS_ADD(BytesSentCounter(), n);
}

void CountReceived(size_t n) {
  g_bytes_received.fetch_add(n, std::memory_order_relaxed);
  MIDAS_OBS_ADD(BytesReceivedCounter(), n);
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FrameChannel::FrameChannel(int fd, std::string label, Transport transport)
    : fd_(fd), label_(std::move(label)), transport_(transport) {
  if (transport_ == Transport::kTcp && fd_ >= 0) {
    // Best-effort: assignment/result frames are small request/response
    // pairs; Nagle batching would serialize the whole protocol on RTTs.
    (void)SetTcpNoDelay(fd_);
  }
}

FrameChannel::~FrameChannel() { CloseFd(); }

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    CloseFd();
    fd_ = std::exchange(other.fd_, -1);
    label_ = std::move(other.label_);
    transport_ = other.transport_;
    frames_sent_ = other.frames_sent_;
    peer_closed_ = other.peer_closed_;
    write_timeout_ms_ = other.write_timeout_ms_;
    partition_until_ms_ = other.partition_until_ms_;
    decoder_ = std::move(other.decoder_);
  }
  return *this;
}

void FrameChannel::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status FrameChannel::SetNonBlocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(ErrnoMessage("fcntl failed", label_));
  }
  return Status::OK();
}

Status FrameChannel::WriteAll(const char* data, size_t len) {
  const int64_t deadline = NowMs() + write_timeout_ms_;
  size_t written = 0;
  while (written < len) {
    // MSG_NOSIGNAL: a peer that died between poll and write must surface as
    // EPIPE — a routine worker-loss signal for the coordinator — not as a
    // process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + written, len - written, MSG_NOSIGNAL);
    if (n >= 0) {
      CountSent(static_cast<size_t>(n));
      written += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Non-blocking fd with a full send buffer (TCP under a slow or
      // stalled peer): wait for writability, bounded so a peer that never
      // drains registers as lost instead of wedging the caller.
      const int64_t left = deadline - NowMs();
      if (left <= 0) {
        return Status::IoError("write timed out after " +
                               std::to_string(write_timeout_ms_) +
                               " ms (peer " + label_ + ")");
      }
      struct pollfd pfd = {};
      pfd.fd = fd_;
      pfd.events = POLLOUT;
      const int rc =
          ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(left, 1000)));
      if (rc < 0 && errno != EINTR) {
        return Status::IoError(ErrnoMessage("poll failed", label_));
      }
      continue;
    }
    return Status::IoError(ErrnoMessage("write failed", label_));
  }
  return Status::OK();
}

bool FrameChannel::Partitioned() const {
  return partition_until_ms_ != 0 && NowMs() < partition_until_ms_;
}

Status FrameChannel::SendMagic() {
  if (fd_ < 0) return Status::FailedPrecondition("channel closed");
  return WriteAll(store::kRecordLogMagic, store::kRecordLogMagicLen);
}

Status FrameChannel::WriteFrame(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("channel closed");
  if (payload.size() > store::kMaxRecordPayload) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  const std::string frame = store::EncodeRecordFrame(payload);
  const std::string key = label_ + "#" + std::to_string(frames_sent_);
  ++frames_sent_;

#ifdef MIDAS_FAULT_INJECTION
  if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteSocketTorn, key)) {
    // Peer-death mid-send: deliver a seeded prefix of the frame, then sever
    // the connection. DrawOffset never returns frame.size(), so the peer
    // always observes either a torn frame or an EOF inside this frame.
    const uint64_t prefix = fault::FaultInjector::Global().DrawOffset(
        fault::kSiteSocketTorn, key, frame.size());
    (void)WriteAll(frame.data(), static_cast<size_t>(prefix));
    ::shutdown(fd_, SHUT_RDWR);
    return Status::IoError("injected socket_torn after " +
                           std::to_string(prefix) + "/" +
                           std::to_string(frame.size()) + " bytes to " +
                           label_);
  }
  if (transport_ == Transport::kTcp) {
    // The network fault sites model the wire, not the peer: the sender
    // sees OK (its bytes left the process fine as far as it knows) and the
    // failure-handling burden falls on liveness + reassignment, exactly as
    // on a real network. Decisions are seeded per frame key, so a given
    // spec delays/drops/partitions the same frames every run.
    auto& injector = fault::FaultInjector::Global();
    if (Partitioned()) return Status::OK();  // outage eats the frame
    if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteNetPartition, key)) {
      partition_until_ms_ =
          NowMs() +
          static_cast<int64_t>(injector.delay_ms(fault::kSiteNetPartition));
      return Status::OK();
    }
    if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteNetDrop, key)) {
      return Status::OK();  // one-direction loss: this frame never arrives
    }
    if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteNetDelay, key)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          injector.delay_ms(fault::kSiteNetDelay)));
    }
  }
#endif

  return WriteAll(frame.data(), frame.size());
}

FrameChannel::Read FrameChannel::ReadAvailable(std::string* error) {
  if (fd_ < 0) {
    *error = "channel closed";
    return Read::kError;
  }
  bool got_bytes = false;
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      CountReceived(static_cast<size_t>(n));
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      got_bytes = true;
      continue;
    }
    if (n == 0) {
      peer_closed_ = true;
      return Read::kEof;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return got_bytes ? Read::kFrame : Read::kNeedMore;
    }
    // ECONNRESET is a peer death, same as EOF for reassignment purposes,
    // but surfaced distinctly so the coordinator can count it.
    *error = ErrnoMessage("read failed", label_);
    return Read::kError;
  }
}

FrameChannel::Read FrameChannel::PopFrame(std::string* payload,
                                          std::string* error) {
  for (;;) {
    switch (decoder_.Pop(payload, error)) {
      case store::RecordStreamDecoder::Next::kFrame:
#ifdef MIDAS_FAULT_INJECTION
        // A partition cuts both directions: inbound frames that surface
        // during the outage window vanish exactly like outbound ones.
        if (transport_ == Transport::kTcp && Partitioned()) continue;
#endif
        return Read::kFrame;
      case store::RecordStreamDecoder::Next::kCorrupt:
        return Read::kCorrupt;
      case store::RecordStreamDecoder::Next::kNeedMore:
        break;
    }
    break;
  }
  if (peer_closed_) {
    if (decoder_.buffered_bytes() > 0) {
      // Bytes past the last complete frame with no more coming: the peer
      // died mid-send.
      *error = "peer " + label_ + " closed with a torn frame buffered";
      return Read::kCorrupt;
    }
    return Read::kEof;
  }
  return Read::kNeedMore;
}

FrameChannel::Read FrameChannel::WaitForFrame(int timeout_ms,
                                              std::string* payload,
                                              std::string* error) {
  for (;;) {
    // Drain buffered frames before touching the socket.
    const Read popped = PopFrame(payload, error);
    if (popped != Read::kNeedMore) return popped;

    struct pollfd pfd = {};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      *error = ErrnoMessage("poll failed", label_);
      return Read::kError;
    }
    if (rc == 0) return Read::kTimeout;

    char buf[16 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      CountReceived(static_cast<size_t>(n));
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      peer_closed_ = true;
      continue;  // PopFrame turns this into kEof or kCorrupt.
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    *error = ErrnoMessage("read failed", label_);
    return Read::kError;
  }
}

uint64_t FrameChannel::TotalBytesSent() {
  return g_bytes_sent.load(std::memory_order_relaxed);
}

uint64_t FrameChannel::TotalBytesReceived() {
  return g_bytes_received.load(std::memory_order_relaxed);
}

}  // namespace dist
}  // namespace midas
