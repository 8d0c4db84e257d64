#include "midas/util/tsv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/test_dir.h"
#include "midas/rdf/ntriples.h"

namespace midas {
namespace {

TEST(TsvEscapeTest, RoundTrip) {
  const std::string nasty = "a\tb\nc\rd\\e plain";
  std::string escaped = TsvEscape(nasty);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(TsvUnescape(escaped), nasty);
}

TEST(TsvEscapeTest, PlainStringsUntouched) {
  EXPECT_EQ(TsvEscape("hello world"), "hello world");
  EXPECT_EQ(TsvUnescape("hello world"), "hello world");
}

TEST(TsvEscapeTest, UnknownEscapePreserved) {
  EXPECT_EQ(TsvUnescape("a\\qb"), "a\\qb");
  // Trailing lone backslash preserved.
  EXPECT_EQ(TsvUnescape("a\\"), "a\\");
}

TEST(TsvRowTest, FormatAndParse) {
  std::vector<std::string> fields = {"url", "a\tb", "c"};
  std::string row = TsvFormatRow(fields);
  EXPECT_EQ(row.back(), '\n');
  auto parsed = TsvParseRow(std::string_view(row).substr(0, row.size() - 1));
  EXPECT_EQ(parsed, fields);
}

// File writers append rows into one buffer; a row must come out exactly as
// TsvFormatRow renders it, escapes included.
TEST(TsvRowTest, AppendRowMatchesFormatRow) {
  std::string contents = "prefix\n";
  TsvAppendRow({"url", "a\tb", "back\\slash", "", "line\nbreak\r"},
               &contents);
  TsvAppendRow({"single"}, &contents);
  EXPECT_EQ(contents,
            "prefix\n" +
                TsvFormatRow({"url", "a\tb", "back\\slash", "",
                              "line\nbreak\r"}) +
                TsvFormatRow({"single"}));
}

// The rows of a file, as TsvWriteFile takes them.
std::string Contents(const std::vector<std::vector<std::string>>& rows) {
  std::string contents;
  for (const auto& row : rows) contents += TsvFormatRow(row);
  return contents;
}

class TsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/test.tsv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TsvFileTest, WriteThenRead) {
  std::vector<std::vector<std::string>> rows = {
      {"a", "b", "c"}, {"d", "e\tf", "g"}};
  ASSERT_TRUE(TsvWriteFile(path_, Contents(rows)).ok());

  std::vector<std::vector<std::string>> read;
  Status s = TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
    read.push_back(f);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(read, rows);
}

TEST_F(TsvFileTest, SkipsCommentsAndBlankLines) {
  {
    std::ofstream out(path_);
    out << "# comment\n\nreal\trow\n";
  }
  size_t rows = 0;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t row,
                                     const std::vector<std::string>& f) {
                EXPECT_EQ(row, rows);
                EXPECT_EQ(f.size(), 2u);
                ++rows;
                return Status::OK();
              }).ok());
  EXPECT_EQ(rows, 1u);
}

TEST_F(TsvFileTest, CallbackErrorPropagates) {
  ASSERT_TRUE(TsvWriteFile(path_, Contents({{"x"}, {"y"}})).ok());
  Status s = TsvReadFile(path_, [](size_t, const std::vector<std::string>&) {
    return Status::Corruption("stop");
  });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(TsvFileTest, MissingFileIsIoError) {
  Status s = TsvReadFile("/nonexistent/really/not/here.tsv",
                         [](size_t, const std::vector<std::string>&) {
                           return Status::OK();
                         });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST_F(TsvFileTest, HandlesCrLf) {
  {
    std::ofstream out(path_);
    out << "a\tb\r\nc\td\r\n";
  }
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  ASSERT_EQ(read.size(), 2u);
  EXPECT_EQ(read[0][1], "b");  // no trailing \r
}

// The reader reuses one field vector across rows; each row must still see
// exactly its own fields, whatever width the previous row had.
TEST_F(TsvFileTest, RowsOfChangingWidthYieldOnlyTheirOwnFields) {
  const std::vector<std::vector<std::string>> rows = {
      {"a long first field past the small-string size", "b", "c"},
      {"d", "e"},
      {"f", "g", "h", "i"},
      {"j", "k"}};
  ASSERT_TRUE(TsvWriteFile(path_, Contents(rows)).ok());
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  EXPECT_EQ(read, rows);
}

TEST_F(TsvFileTest, LastLineWithoutNewline) {
  {
    std::ofstream out(path_);
    out << "a\tb\nc\td";
  }
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  const std::vector<std::vector<std::string>> expected = {{"a", "b"},
                                                          {"c", "d"}};
  EXPECT_EQ(read, expected);
}

TEST_F(TsvFileTest, TrailingTabGivesEmptyLastField) {
  {
    std::ofstream out(path_);
    out << "a\tb\t\n\tx\t\r\n";
  }
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  const std::vector<std::vector<std::string>> expected = {{"a", "b", ""},
                                                          {"", "x", ""}};
  EXPECT_EQ(read, expected);
}

TEST_F(TsvFileTest, EscapesInsideFieldsAreDecoded) {
  {
    std::ofstream out(path_);
    out << "tab\\there\tline\\nbreak\tback\\\\slash\n"
        << "plain\tmixed \\\\t\\t end\\q\n";
  }
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  const std::vector<std::vector<std::string>> expected = {
      {"tab\there", "line\nbreak", "back\\slash"},
      {"plain", "mixed \\t\t end\\q"}};
  EXPECT_EQ(read, expected);
}

TEST_F(TsvFileTest, LineLongerThanTheReadBuffer) {
  // The reader starts with a 64 KiB buffer; a 300,000-byte field must come
  // through whole, and the short rows around it unchanged.
  const std::string huge(300000, 'z');
  const std::vector<std::vector<std::string>> rows = {
      {"before", "x"}, {"a", huge, "b"}, {"after", "y"}};
  ASSERT_TRUE(TsvWriteFile(path_, Contents(rows)).ok());
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t, const std::vector<std::string>& f) {
                read.push_back(f);
                return Status::OK();
              }).ok());
  EXPECT_EQ(read, rows);
}

TEST_F(TsvFileTest, ManyRowsAcrossBufferBoundaries) {
  // ~1 MB of rows of varying length, so lines straddle many refills.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({std::to_string(i), std::string(static_cast<size_t>(i % 97), static_cast<char>('a' + i % 26)),
                    i % 5 == 0 ? "esc\t" + std::to_string(i) : "z"});
  }
  ASSERT_TRUE(TsvWriteFile(path_, Contents(rows)).ok());
  std::vector<std::vector<std::string>> read;
  ASSERT_TRUE(TsvReadFile(path_, [&](size_t row,
                                     const std::vector<std::string>& f) {
                EXPECT_EQ(row, read.size());
                read.push_back(f);
                return Status::OK();
              }).ok());
  EXPECT_EQ(read, rows);
}

TEST_F(TsvFileTest, LoadTsvFactsNamesTheRowOfAWrongWidth) {
  {
    std::ofstream out(path_);
    out << "# header comment\ns\tp\to\ns2\tp2\to2\nbad\trow\n";
  }
  rdf::Dictionary dict;
  std::vector<rdf::Triple> facts;
  const Status s = rdf::LoadTsvFacts(path_, &dict, &facts);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("row 2: expected 3 fields, got 2"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(facts.size(), 2u);
}

}  // namespace
}  // namespace midas
