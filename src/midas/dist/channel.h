#ifndef MIDAS_DIST_CHANNEL_H_
#define MIDAS_DIST_CHANNEL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "midas/store/record_log.h"
#include "midas/util/status.h"

namespace midas {
namespace dist {

/// Which kind of socket a FrameChannel rides on. TCP channels get
/// TCP_NODELAY (dist frames are request/response pairs, not bulk streams)
/// and are the injection surface for the seeded network fault sites
/// (net_delay / net_drop / net_partition) — a unix socketpair on one host
/// cannot lose or delay bytes, so the sites stay inert there.
enum class Transport { kUnix, kTcp };

/// One direction-agnostic end of a dist connection: a file descriptor plus
/// the MIDASLG1 stream state for the bytes arriving on it. Each side calls
/// SendMagic() once after connecting, then exchanges CRC-framed records
/// (store::EncodeRecordFrame) whose payloads are wire.h messages.
///
/// The channel owns the fd and closes it on destruction. Move-only.
///
/// Reading has two modes matching the two process roles:
///  - the coordinator multiplexes many channels with poll(2) and calls
///    ReadAvailable() on POLLIN (fds set non-blocking via SetNonBlocking),
///    then drains complete frames with PopFrame();
///  - a worker owns a single blocking fd and calls WaitForFrame(), which
///    polls, reads, and pops in one step.
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Takes ownership of `fd`. `label` names the peer in errors and in the
  /// per-frame fault keys ("<label>#<frame index>"). A kTcp channel sets
  /// TCP_NODELAY on the fd and arms the net_* fault sites.
  FrameChannel(int fd, std::string label,
               Transport transport = Transport::kUnix);
  ~FrameChannel();
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& label() const { return label_; }
  Transport transport() const { return transport_; }

  /// Puts the fd in non-blocking mode (coordinator side). Writes then ride
  /// the short-write/EAGAIN path: WriteFrame polls for POLLOUT and resumes
  /// the partial write instead of erroring (a TCP send buffer fills under
  /// real networks; socketpairs never exercised this).
  Status SetNonBlocking();

  /// Bounds how long a single WriteFrame may block on an unwritable socket
  /// (POLLOUT wait) before surfacing IoError. A stalled peer (SIGSTOP,
  /// dead network) must register as a worker loss, not wedge the
  /// coordinator's poll loop forever.
  void set_write_timeout_ms(int ms) { write_timeout_ms_ = ms; }

  /// Writes the 8-byte MIDASLG1 stream magic. Call once, before any frame.
  Status SendMagic();

  /// Frames `payload` and writes it. The kSiteSocketTorn fault site tears
  /// the write at a seeded byte offset and severs the connection, modeling
  /// a peer dying mid-send; the caller sees IoError, the peer a torn frame
  /// or clean EOF at a frame boundary.
  ///
  /// On kTcp channels three further seeded sites fire per frame key
  /// ("<label>#<frame index>"), all invisible to the caller (OK returned —
  /// the network ate the frame, not the sender):
  ///  - net_delay: the frame is delivered after the site's delay_ms;
  ///  - net_drop: the frame is silently lost (one direction only);
  ///  - net_partition: the channel enters a timed outage (delay_ms long)
  ///    in which every frame it sends AND receives is discarded.
  Status WriteFrame(std::string_view payload);

  /// Outcome of a read-side step.
  enum class Read {
    kFrame,     // *payload holds one complete record payload
    kNeedMore,  // nothing complete buffered (ReadAvailable: and no EOF yet)
    kTimeout,   // WaitForFrame: deadline expired with no complete frame
    kEof,       // peer closed cleanly at a frame boundary
    kCorrupt,   // stream unrecoverable (bad magic/CRC, torn tail at EOF)
    kError,     // transport error; *error holds details
  };

  /// Non-blocking drain: reads whatever the socket has buffered (requires
  /// SetNonBlocking). Returns kNeedMore when the socket is merely empty;
  /// kEof records that the peer closed (complete frames already buffered
  /// can still be popped — PopFrame reports kEof only once drained).
  Read ReadAvailable(std::string* error);

  /// Pops the next complete frame from buffered bytes without touching the
  /// socket. kEof only after the peer closed AND the buffer is drained; a
  /// close with a partial frame buffered is kCorrupt (torn frame). During
  /// an injected net_partition outage on a kTcp channel, complete inbound
  /// frames are silently discarded (the partition cuts both directions).
  Read PopFrame(std::string* payload, std::string* error);

  /// Blocking receive for the single-channel worker loop: polls the fd up
  /// to `timeout_ms` (-1 = forever), reads, and returns the next frame.
  Read WaitForFrame(int timeout_ms, std::string* payload, std::string* error);

  /// Process-wide transport byte totals across every FrameChannel: bytes
  /// handed to the socket (magic + framing included; an injected torn write
  /// counts the prefix that actually left) and bytes read off it. Also
  /// exported as the dist.bytes_sent / dist.bytes_received counters. The
  /// coordinator's per-round log derives bytes-per-assignment from these.
  static uint64_t TotalBytesSent();
  static uint64_t TotalBytesReceived();

 private:
  void CloseFd();
  Status WriteAll(const char* data, size_t len);
  /// True while a fired net_partition outage is still in effect.
  bool Partitioned() const;

  int fd_ = -1;
  std::string label_;
  Transport transport_ = Transport::kUnix;
  uint64_t frames_sent_ = 0;
  bool peer_closed_ = false;
  int write_timeout_ms_ = 30'000;
  int64_t partition_until_ms_ = 0;
  store::RecordStreamDecoder decoder_;
};

}  // namespace dist
}  // namespace midas

#endif  // MIDAS_DIST_CHANNEL_H_
