#include "midas/store/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "midas/fault/fault.h"
#include "midas/obs/obs.h"
#include "midas/store/atomic_file.h"
#include "midas/store/byte_codec.h"
#include "midas/store/crc32.h"

namespace midas {
namespace store {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("write failed for", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

obs::Counter* AppendCounter() {
  static obs::Counter* counter = MIDAS_OBS_COUNTER("store.record_appends");
  return counter;
}

obs::Counter* TruncatedTailCounter() {
  static obs::Counter* counter =
      MIDAS_OBS_COUNTER("store.record_truncated_tails");
  return counter;
}

}  // namespace

StatusOr<RecordReadResult> ReadRecordLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("record log not found: '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failed for '" + path + "'");
  }
  const std::string data = buffer.str();

  if (data.size() < kRecordLogMagicLen ||
      std::memcmp(data.data(), kRecordLogMagic, kRecordLogMagicLen) != 0) {
    return Status::Corruption("'" + path + "' is not a midas record log");
  }

  RecordReadResult result;
  size_t pos = kRecordLogMagicLen;
  result.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderLen) {
      result.tail_truncated = true;
      result.tail_error = "torn frame header at offset " + std::to_string(pos);
      break;
    }
    const uint32_t payload_len = DecodeU32Le(data.data() + pos);
    const uint32_t crc = DecodeU32Le(data.data() + pos + 4);
    if (payload_len > kMaxRecordPayload) {
      result.tail_truncated = true;
      result.tail_error = "implausible payload length " +
                          std::to_string(payload_len) + " at offset " +
                          std::to_string(pos);
      break;
    }
    if (data.size() - pos - kRecordHeaderLen < payload_len) {
      result.tail_truncated = true;
      result.tail_error = "torn payload at offset " + std::to_string(pos);
      break;
    }
    const std::string_view payload(data.data() + pos + kRecordHeaderLen,
                                   payload_len);
    if (Crc32(payload) != crc) {
      result.tail_truncated = true;
      result.tail_error = "crc mismatch at offset " + std::to_string(pos);
      break;
    }
    result.records.emplace_back(payload);
    pos += kRecordHeaderLen + payload_len;
    result.valid_bytes = pos;
  }
  if (result.tail_truncated) {
    MIDAS_OBS_ADD(TruncatedTailCounter(), 1);
  }
  return result;
}

std::string EncodeRecordFrame(std::string_view payload) {
  std::string frame(kRecordHeaderLen + payload.size(), '\0');
  EncodeU32Le(static_cast<uint32_t>(payload.size()), frame.data());
  EncodeU32Le(Crc32(payload), frame.data() + 4);
  std::memcpy(frame.data() + kRecordHeaderLen, payload.data(), payload.size());
  return frame;
}

void RecordStreamDecoder::Feed(std::string_view bytes) {
  if (corrupt_) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // doesn't grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

RecordStreamDecoder::Next RecordStreamDecoder::Pop(std::string* payload,
                                                   std::string* error) {
  if (corrupt_) {
    *error = corrupt_error_;
    return Next::kCorrupt;
  }
  const auto fail = [&](std::string why) {
    corrupt_ = true;
    corrupt_error_ = std::move(why);
    *error = corrupt_error_;
    return Next::kCorrupt;
  };
  if (!magic_done_) {
    if (buf_.size() - pos_ < kRecordLogMagicLen) return Next::kNeedMore;
    if (std::memcmp(buf_.data() + pos_, kRecordLogMagic, kRecordLogMagicLen) !=
        0) {
      return fail("bad stream magic");
    }
    pos_ += kRecordLogMagicLen;
    magic_done_ = true;
  }
  if (buf_.size() - pos_ < kRecordHeaderLen) return Next::kNeedMore;
  const uint32_t payload_len = DecodeU32Le(buf_.data() + pos_);
  const uint32_t crc = DecodeU32Le(buf_.data() + pos_ + 4);
  if (payload_len > kMaxRecordPayload) {
    return fail("implausible frame length " + std::to_string(payload_len));
  }
  if (buf_.size() - pos_ - kRecordHeaderLen < payload_len) {
    return Next::kNeedMore;
  }
  const std::string_view body(buf_.data() + pos_ + kRecordHeaderLen,
                              payload_len);
  if (Crc32(body) != crc) {
    return fail("frame crc mismatch");
  }
  payload->assign(body.data(), body.size());
  pos_ += kRecordHeaderLen + payload_len;
  return Next::kFrame;
}

RecordWriter::~RecordWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RecordWriter::Create(const std::string& path) {
  if (fd_ >= 0) {
    return Status::FailedPrecondition("RecordWriter already open");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open failed for", path));
  }
  Status status = WriteAll(fd, kRecordLogMagic, kRecordLogMagicLen, path);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed for", path));
  }
  if (!status.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return status;
  }
  // New directory entry: durable only after the parent fsync.
  status = FsyncPath(ParentDir(path));
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  fd_ = fd;
  path_ = path;
  appends_ = 0;
  return Status::OK();
}

Status RecordWriter::OpenForAppend(const std::string& path,
                                   uint64_t valid_bytes) {
  if (fd_ >= 0) {
    return Status::FailedPrecondition("RecordWriter already open");
  }
  if (valid_bytes < kRecordLogMagicLen) {
    return Status::InvalidArgument(
        "valid_bytes must cover the magic (got " +
        std::to_string(valid_bytes) + ")");
  }
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError(ErrnoMessage("open failed for", path));
  }
  // Discard any torn tail from a previous crash before appending past it;
  // otherwise the new record would be buried behind unreadable bytes.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const Status status =
        Status::IoError(ErrnoMessage("ftruncate failed for", path));
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status status =
        Status::IoError(ErrnoMessage("lseek failed for", path));
    ::close(fd);
    return status;
  }
  if (::fsync(fd) != 0) {
    const Status status =
        Status::IoError(ErrnoMessage("fsync failed for", path));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  path_ = path;
  appends_ = 0;
  return Status::OK();
}

Status RecordWriter::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("RecordWriter not open");
  }
  if (payload.size() > kMaxRecordPayload) {
    return Status::InvalidArgument("record payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  const std::string key = path_ + "#" + std::to_string(appends_);
  ++appends_;

  if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteIoWriteFail, key)) {
    return Status::IoError(
        "injected io_write_fail (no space left on device) appending to '" +
        path_ + "'");
  }

  const std::string frame = EncodeRecordFrame(payload);

  size_t write_len = frame.size();
#ifdef MIDAS_FAULT_INJECTION
  bool torn = false;
  if (MIDAS_FAULT_SHOULD_CORRUPT(fault::kSiteIoTornWrite, key)) {
    // Simulated kill mid-append: persist a seeded prefix of the frame.
    // DrawOffset never returns frame.size(), so the tear is always real.
    write_len = fault::FaultInjector::Global().DrawOffset(
        fault::kSiteIoTornWrite, key, frame.size());
    torn = true;
  }
#endif

  Status status = WriteAll(fd_, frame.data(), write_len, path_);
  if (status.ok() && ::fsync(fd_) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed for", path_));
  }

#ifdef MIDAS_FAULT_INJECTION
  if (status.ok() && torn) {
    return Status::IoError("injected io_torn_write after " +
                           std::to_string(write_len) + "/" +
                           std::to_string(frame.size()) +
                           " bytes appending to '" + path_ + "'");
  }
#endif

  if (status.ok()) {
    MIDAS_OBS_ADD(AppendCounter(), 1);
  }
  return status;
}

Status RecordWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status status;
  if (::fsync(fd_) != 0) {
    status = Status::IoError(ErrnoMessage("fsync failed for", path_));
  }
  if (::close(fd_) != 0 && status.ok()) {
    status = Status::IoError(ErrnoMessage("close failed for", path_));
  }
  fd_ = -1;
  return status;
}

}  // namespace store
}  // namespace midas
