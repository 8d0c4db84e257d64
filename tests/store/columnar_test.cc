// MIDASCOL1 writer/reader contract: round-trip fidelity at the raw-code
// level, fingerprint stability, rejection of every corruption class (bad
// magic, flipped section bytes, truncation at arbitrary offsets), and the
// crash-safety discipline under injected I/O faults.

#include "midas/store/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_dir.h"
#include "midas/fault/fault.h"
#include "midas/store/atomic_file.h"
#include "midas/store/crc32.h"
#include "midas/util/random.h"
#include "midas/util/status.h"

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

// Finishes `writer` with materialized dictionaries.
Status Finish(ColumnarWriter* writer, const std::vector<std::string>& terms,
              const std::vector<std::string>& urls) {
  return writer->Finish(
      terms.size(),
      [&terms](size_t i) { return std::string_view(terms[i]); }, urls.size(),
      [&urls](size_t i) { return std::string_view(urls[i]); });
}

bool Exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

struct RawRecord {
  uint32_t url, subject, predicate, object;
  double confidence;
};

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/dump.midascol";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(AtomicTempPathForTest().c_str());
  }

  std::string AtomicTempPathForTest() const { return AtomicTempPath(path_); }

  // A deterministic random corpus in raw-code space.
  std::vector<RawRecord> MakeRecords(size_t n, size_t num_terms,
                                     size_t num_urls, uint64_t seed) const {
    Rng rng(seed);
    std::vector<RawRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      records.push_back(RawRecord{
          static_cast<uint32_t>(rng.Uniform(num_urls)),
          static_cast<uint32_t>(rng.Uniform(num_terms)),
          static_cast<uint32_t>(rng.Uniform(num_terms)),
          static_cast<uint32_t>(rng.Uniform(num_terms)),
          rng.UniformDouble()});
    }
    return records;
  }

  std::vector<std::string> MakeTerms(size_t n) const {
    std::vector<std::string> terms;
    for (size_t i = 0; i < n; ++i) {
      terms.push_back("term_" + std::to_string(i) +
                      std::string(i % 7, 'x'));  // varied lengths incl. long
    }
    if (!terms.empty()) terms[0] = "";  // empty string must round-trip
    return terms;
  }

  std::vector<std::string> MakeUrls(size_t n) const {
    std::vector<std::string> urls;
    for (size_t i = 0; i < n; ++i) {
      urls.push_back("http://example.com/page" + std::to_string(i));
    }
    return urls;
  }

  // Writes records + dictionaries; returns the writer's fingerprint.
  uint64_t WriteFile(const std::vector<RawRecord>& records,
                     const std::vector<std::string>& terms,
                     const std::vector<std::string>& urls) {
    ColumnarWriter writer(path_);
    for (const RawRecord& r : records) {
      writer.AddRecord(r.url, r.subject, r.predicate, r.object, r.confidence);
    }
    Status status = Finish(&writer, terms, urls);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return writer.content_fingerprint();
  }

  std::string path_;
};

TEST_F(ColumnarTest, RoundTripsRecordsAndDictionaries) {
  const auto terms = MakeTerms(57);
  const auto urls = MakeUrls(9);
  const auto records = MakeRecords(1000, terms.size(), urls.size(), 0xABC);
  const uint64_t fingerprint = WriteFile(records, terms, urls);
  EXPECT_NE(fingerprint, 0u);

  ColumnarReader reader;
  Status status = reader.Open(path_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reader.is_open());
  ASSERT_EQ(reader.num_records(), records.size());
  ASSERT_EQ(reader.num_terms(), terms.size());
  ASSERT_EQ(reader.num_urls(), urls.size());
  EXPECT_EQ(reader.content_fingerprint(), fingerprint);

  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(reader.term(static_cast<uint32_t>(i)), terms[i]);
  }
  for (size_t i = 0; i < urls.size(); ++i) {
    EXPECT_EQ(reader.url(static_cast<uint32_t>(i)), urls[i]);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reader.url_codes()[i], records[i].url);
    EXPECT_EQ(reader.subjects()[i], records[i].subject);
    EXPECT_EQ(reader.predicates()[i], records[i].predicate);
    EXPECT_EQ(reader.objects()[i], records[i].object);
    EXPECT_EQ(reader.confidences()[i], records[i].confidence);  // bit-exact
  }
}

TEST_F(ColumnarTest, EmptyFileRoundTrips) {
  WriteFile({}, {}, {});
  ColumnarReader reader;
  Status status = reader.Open(path_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader.num_records(), 0u);
  EXPECT_EQ(reader.num_terms(), 0u);
  EXPECT_EQ(reader.num_urls(), 0u);
}

TEST_F(ColumnarTest, FingerprintChangesWithContent) {
  const auto terms = MakeTerms(10);
  const auto urls = MakeUrls(3);
  auto records = MakeRecords(100, terms.size(), urls.size(), 1);
  const uint64_t fp1 = WriteFile(records, terms, urls);
  records[50].object = (records[50].object + 1) % terms.size();
  const uint64_t fp2 = WriteFile(records, terms, urls);
  EXPECT_NE(fp1, fp2);
}

TEST_F(ColumnarTest, RejectsOutOfRangeCodesAtFinish) {
  ColumnarWriter writer(path_);
  writer.AddRecord(0, 5, 0, 0, 0.5);  // subject 5 vs 3 terms
  Status status = Finish(&writer, MakeTerms(3), MakeUrls(1));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(Exists(path_));
}

TEST_F(ColumnarTest, FinishTwiceFails) {
  ColumnarWriter writer(path_);
  writer.AddRecord(0, 0, 0, 0, 0.5);
  ASSERT_TRUE(Finish(&writer, MakeTerms(1), MakeUrls(1)).ok());
  EXPECT_EQ(Finish(&writer, MakeTerms(1), MakeUrls(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ColumnarTest, SniffsMagic) {
  EXPECT_FALSE(SniffColumnarMagic(path_));  // missing
  WriteFileBytes(path_, "short");
  EXPECT_FALSE(SniffColumnarMagic(path_));
  WriteFileBytes(path_, "definitely not a columnar file, padded out long");
  EXPECT_FALSE(SniffColumnarMagic(path_));
  WriteFile(MakeRecords(5, 3, 2, 2), MakeTerms(3), MakeUrls(2));
  EXPECT_TRUE(SniffColumnarMagic(path_));
}

TEST_F(ColumnarTest, RejectsEveryTruncation) {
  WriteFile(MakeRecords(64, 11, 4, 3), MakeTerms(11), MakeUrls(4));
  const std::string bytes = ReadFileBytes(path_);
  ASSERT_GT(bytes.size(), 0u);
  // Every strict prefix must be rejected (footer magic/CRC catches all of
  // them without needing the section CRCs).
  const size_t step = bytes.size() > 512 ? 13 : 1;
  for (size_t len = 0; len < bytes.size(); len += step) {
    WriteFileBytes(path_, bytes.substr(0, len));
    ColumnarReader reader;
    Status status = reader.Open(path_);
    EXPECT_FALSE(status.ok()) << "accepted truncation at " << len;
    EXPECT_FALSE(reader.is_open());
  }
}

TEST_F(ColumnarTest, RejectsSingleByteCorruption) {
  WriteFile(MakeRecords(64, 11, 4, 4), MakeTerms(11), MakeUrls(4));
  const std::string bytes = ReadFileBytes(path_);
  // Flip one byte at a sample of offsets across every section; the
  // per-section CRCs (or footer CRC) must catch each.
  for (size_t pos = 0; pos < bytes.size(); pos += 17) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFileBytes(path_, corrupt);
    ColumnarReader reader;
    Status status = reader.Open(path_);
    EXPECT_FALSE(status.ok()) << "accepted corruption at byte " << pos;
  }
}

TEST_F(ColumnarTest, UnverifiedOpenSkipsSectionChecksOnly) {
  WriteFile(MakeRecords(64, 11, 4, 5), MakeTerms(11), MakeUrls(4));
  const std::string bytes = ReadFileBytes(path_);
  // Corrupt one confidence byte (interior section). With checksums off the
  // open succeeds — but footer corruption must still be rejected.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] = static_cast<char>(corrupt[bytes.size() / 2] ^ 1);
  WriteFileBytes(path_, corrupt);
  ColumnarReadOptions options;
  options.verify_checksums = false;
  ColumnarReader reader;
  EXPECT_TRUE(reader.Open(path_, options).ok());
  reader.Close();

  std::string torn = bytes.substr(0, bytes.size() - 1);
  WriteFileBytes(path_, torn);
  EXPECT_FALSE(reader.Open(path_, options).ok());
}

TEST_F(ColumnarTest, MissingFileIsNotFound) {
  ColumnarReader reader;
  EXPECT_EQ(reader.Open(path_).code(), StatusCode::kNotFound);
}

// Header bytes 10-15 are reserved zeros. Byte 10 set to 1 marked files
// that carried the retired source-range index; Open rejects them and names
// the way out. Any other nonzero reserved byte is plain corruption.
TEST_F(ColumnarTest, ReservedHeaderBytesRejected) {
  WriteFile(MakeRecords(16, 3, 2, 8), MakeTerms(3), MakeUrls(2));
  const std::string bytes = ReadFileBytes(path_);
  ColumnarReader reader;
  ASSERT_TRUE(reader.Open(path_).ok());
  reader.Close();

  std::string flagged = bytes;
  flagged[10] = 1;
  WriteFileBytes(path_, flagged);
  Status status = reader.Open(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("source-range index"), std::string::npos);
  EXPECT_NE(status.message().find("midas convert"), std::string::npos);
  EXPECT_FALSE(reader.is_open());

  for (size_t pos = 10; pos < 16; ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(0x80);
    WriteFileBytes(path_, corrupt);
    status = reader.Open(path_);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "byte " << pos;
    EXPECT_NE(status.message().find("nonzero reserved header byte"),
              std::string::npos)
        << "byte " << pos << ": " << status.ToString();
  }
}

// The code scan at Open is the guard the checksums cannot give: a record
// code past its dictionary, in a file whose CRCs all match (as another
// writer could produce), is Corruption at Open.
TEST_F(ColumnarTest, OutOfRangeCodeUnderMatchingChecksumsRejected) {
  ColumnarWriter writer(path_);
  for (uint32_t url : {0u, 0u, 1u, 1u}) writer.AddRecord(url, 0, 1, 2, 0.5);
  ASSERT_TRUE(Finish(&writer, MakeTerms(3), MakeUrls(2)).ok());
  std::string bytes = ReadFileBytes(path_);

  // The 216-byte footer holds three u64 counts, then one {u64 offset, u64
  // size, u32 crc, u32 reserved} entry per section; its own CRC, at byte
  // 200, covers the bytes before it.
  const size_t footer = bytes.size() - 216;
  const size_t entry = footer + 24 + 24 * kSectionSubject;
  uint64_t offset = 0, size = 0;
  std::memcpy(&offset, bytes.data() + entry, sizeof(offset));
  std::memcpy(&size, bytes.data() + entry + 8, sizeof(size));
  const uint32_t past_last_term = 3;
  std::memcpy(bytes.data() + offset + 3 * sizeof(uint32_t), &past_last_term,
              sizeof(past_last_term));
  const uint32_t section_crc = Crc32(bytes.data() + offset, size);
  std::memcpy(bytes.data() + entry + 16, &section_crc, sizeof(section_crc));
  const uint32_t footer_crc = Crc32(bytes.data() + footer, 200);
  std::memcpy(bytes.data() + footer + 200, &footer_crc, sizeof(footer_crc));
  WriteFileBytes(path_, bytes);

  ColumnarReader reader;
  const Status status = reader.Open(path_);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("record code out of dictionary range"),
            std::string::npos);
  EXPECT_FALSE(reader.is_open());
}

#ifdef MIDAS_FAULT_INJECTION

TEST_F(ColumnarTest, InjectedWriteFailFailsCleanly) {
  fault::ScopedFaultSpec armed("site=io_write_fail,rate=1,seed=1");
  ColumnarWriter writer(path_);
  writer.AddRecord(0, 0, 0, 0, 0.5);
  Status status = Finish(&writer, MakeTerms(1), MakeUrls(1));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(Exists(path_));
}

TEST_F(ColumnarTest, InjectedTornWriteLeavesDestinationAbsentAndTempTorn) {
  fault::ScopedFaultSpec armed("site=io_torn_write,rate=1,seed=9");
  ColumnarWriter writer(path_);
  const auto records = MakeRecords(128, 7, 3, 6);
  for (const RawRecord& r : records) {
    writer.AddRecord(r.url, r.subject, r.predicate, r.object, r.confidence);
  }
  Status status = Finish(&writer, MakeTerms(7), MakeUrls(3));
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // The rename never happened; the torn temp is the simulated crash state
  // and must be rejected by the reader like any truncated file.
  EXPECT_FALSE(Exists(path_));
  ASSERT_TRUE(Exists(AtomicTempPathForTest()));
  ColumnarReader reader;
  EXPECT_FALSE(reader.Open(AtomicTempPathForTest()).ok());
}

TEST_F(ColumnarTest, TornWriteSurvivorIsReplacedOnRetry) {
  // First attempt tears; a clean retry must land atomically over the
  // leftover temp file.
  {
    fault::ScopedFaultSpec armed("site=io_torn_write,rate=1,seed=9");
    ColumnarWriter writer(path_);
    writer.AddRecord(0, 0, 0, 0, 0.25);
    EXPECT_FALSE(Finish(&writer, MakeTerms(1), MakeUrls(1)).ok());
  }
  WriteFile(MakeRecords(16, 3, 2, 7), MakeTerms(3), MakeUrls(2));
  ColumnarReader reader;
  Status status = reader.Open(path_);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader.num_records(), 16u);
}

#endif  // MIDAS_FAULT_INJECTION

}  // namespace
}  // namespace store
}  // namespace midas
