// Record-log codec contract, including the satellite fuzz requirement:
// truncation at EVERY byte offset and single-bit corruption of every byte
// after the magic. The reader must never crash, always recover the exact
// prefix of intact records, and report where the valid bytes end.

#include "midas/store/record_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_dir.h"
#include "midas/store/crc32.h"

namespace midas {
namespace store {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/records.log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Mixed sizes, binary bytes, an empty payload, and NULs: the framing must
  // be content-agnostic.
  std::vector<std::string> SamplePayloads() const {
    return {
        "first record",
        "",
        std::string("bin\0ary\xff\x00 payload", 18),
        std::string(300, 'x'),
    };
  }

  void WriteSampleLog() {
    RecordWriter writer;
    ASSERT_TRUE(writer.Create(path_).ok());
    for (const std::string& payload : SamplePayloads()) {
      ASSERT_TRUE(writer.Append(payload).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }

  // Byte offset of each record boundary: after the magic, then after each
  // record's frame.
  std::vector<size_t> Boundaries(const std::vector<std::string>& payloads) {
    std::vector<size_t> boundaries{kRecordLogMagicLen};
    for (const std::string& p : payloads) {
      boundaries.push_back(boundaries.back() + kRecordHeaderLen + p.size());
    }
    return boundaries;
  }

  std::string path_;
};

TEST_F(RecordLogTest, RoundTripsRecords) {
  WriteSampleLog();
  StatusOr<RecordReadResult> read = ReadRecordLog(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->records, SamplePayloads());
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, ReadFileBytes(path_).size());
}

TEST_F(RecordLogTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRecordLog(path_).status().code(), StatusCode::kNotFound);
}

TEST_F(RecordLogTest, NonLogFilesAreCorruption) {
  WriteFileBytes(path_, "not a record log at all, just text\n");
  EXPECT_EQ(ReadRecordLog(path_).status().code(), StatusCode::kCorruption);
  WriteFileBytes(path_, "shrt");  // shorter than the magic
  EXPECT_EQ(ReadRecordLog(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(RecordLogTest, EmptyLogHasNoRecords) {
  RecordWriter writer;
  ASSERT_TRUE(writer.Create(path_).ok());
  ASSERT_TRUE(writer.Close().ok());
  StatusOr<RecordReadResult> read = ReadRecordLog(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, kRecordLogMagicLen);
}

TEST_F(RecordLogTest, RejectsOversizedAppend) {
  RecordWriter writer;
  ASSERT_TRUE(writer.Create(path_).ok());
  const Status status =
      writer.Append(std::string(kMaxRecordPayload + 1, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(RecordLogTest, ImplausibleLengthFieldIsTruncatedTailNotAllocation) {
  WriteSampleLog();
  std::string bytes = ReadFileBytes(path_);
  // Overwrite the first record's length field with ~4 GB. The reader must
  // flag the tail rather than try to resize a string that large.
  bytes[kRecordLogMagicLen + 3] = '\xff';
  WriteFileBytes(path_, bytes);
  StatusOr<RecordReadResult> read = ReadRecordLog(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, kRecordLogMagicLen);
}

// Truncation fuzz at every byte offset: the recovered records are exactly
// those whose full frame fits in the prefix; valid_bytes is the last
// boundary inside the prefix; leftover bytes flag tail_truncated.
TEST_F(RecordLogTest, TruncationAtEveryByteOffsetRecoversThePrefix) {
  WriteSampleLog();
  const std::string full = ReadFileBytes(path_);
  const std::vector<std::string> payloads = SamplePayloads();
  const std::vector<size_t> boundaries = Boundaries(payloads);
  ASSERT_EQ(boundaries.back(), full.size());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    WriteFileBytes(path_, full.substr(0, cut));
    StatusOr<RecordReadResult> read = ReadRecordLog(path_);
    if (cut < kRecordLogMagicLen) {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
      continue;
    }
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    size_t expected_records = 0;
    size_t expected_valid = kRecordLogMagicLen;
    while (expected_records + 1 < boundaries.size() &&
           boundaries[expected_records + 1] <= cut) {
      ++expected_records;
      expected_valid = boundaries[expected_records];
    }
    EXPECT_EQ(read->records.size(), expected_records);
    for (size_t i = 0; i < expected_records; ++i) {
      EXPECT_EQ(read->records[i], payloads[i]);
    }
    EXPECT_EQ(read->valid_bytes, expected_valid);
    EXPECT_EQ(read->tail_truncated, cut != expected_valid);
  }
}

// Bit-flip fuzz over every bit after the magic: CRC-32 detects every
// single-bit error, so the reader recovers exactly the records before the
// flipped one and flags the tail. Records *after* the flip are unreachable
// by design — the log is a crash log, not a skip-list.
TEST_F(RecordLogTest, SingleBitCorruptionOfEveryByteIsDetected) {
  WriteSampleLog();
  const std::string full = ReadFileBytes(path_);
  const std::vector<std::string> payloads = SamplePayloads();
  const std::vector<size_t> boundaries = Boundaries(payloads);

  for (size_t byte = kRecordLogMagicLen; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = full;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      WriteFileBytes(path_, corrupted);
      StatusOr<RecordReadResult> read = ReadRecordLog(path_);
      ASSERT_TRUE(read.ok()) << read.status().ToString();

      // Which record holds the flipped byte?
      size_t flipped_record = 0;
      while (boundaries[flipped_record + 1] <= byte) ++flipped_record;

      ASSERT_LE(read->records.size(), payloads.size());
      // Everything before the flipped record survives bit-exact; the
      // flipped record itself must never be returned as valid. (A flip in
      // a length field can make the frame "swallow" later records, but can
      // never resurrect a record whose CRC no longer matches.)
      for (size_t i = 0; i < read->records.size() && i < flipped_record;
           ++i) {
        EXPECT_EQ(read->records[i], payloads[i])
            << "byte=" << byte << " bit=" << bit;
      }
      EXPECT_LE(read->records.size(), flipped_record)
          << "corrupted record returned as valid at byte=" << byte
          << " bit=" << bit;
      EXPECT_TRUE(read->tail_truncated)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST_F(RecordLogTest, OpenForAppendDiscardsTornTailAndContinues) {
  WriteSampleLog();
  const std::string full = ReadFileBytes(path_);
  // Tear mid-way through the last record.
  WriteFileBytes(path_, full.substr(0, full.size() - 3));

  StatusOr<RecordReadResult> read = ReadRecordLog(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->records.size(), SamplePayloads().size() - 1);

  RecordWriter writer;
  ASSERT_TRUE(writer.OpenForAppend(path_, read->valid_bytes).ok());
  ASSERT_TRUE(writer.Append("appended after recovery").ok());
  ASSERT_TRUE(writer.Close().ok());

  StatusOr<RecordReadResult> reread = ReadRecordLog(path_);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread->tail_truncated);
  ASSERT_EQ(reread->records.size(), SamplePayloads().size());
  EXPECT_EQ(reread->records.back(), "appended after recovery");
}

TEST_F(RecordLogTest, CrcMatchesReferenceVectors) {
  // The classic CRC-32 check value ("123456789" -> 0xCBF43926) pins the
  // polynomial and reflection; an implementation change would silently
  // orphan every existing log.
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
  // Chained computation equals one-shot.
  const std::string_view data = "chained crc computation";
  const uint32_t whole = Crc32(data);
  uint32_t chained = Crc32(data.substr(0, 7));
  chained = Crc32(data.substr(7).data(), data.size() - 7, chained);
  EXPECT_EQ(chained, whole);
}

}  // namespace
}  // namespace store
}  // namespace midas
