#include "midas/util/tsv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/test_dir.h"
#include "midas/rdf/ntriples.h"

namespace midas {
namespace {

// The rows TsvReadFile yields for `path`.
std::vector<std::vector<std::string>> ReadRows(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  const Status s =
      TsvReadFile(path, [&](size_t, const std::vector<std::string>& f) {
        rows.push_back(f);
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return rows;
}

// The escape codec, through the shipped writer and reader: TsvAppendRow
// writes a file, TsvReadFile decodes it.
class TsvEscapeTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = tests::TestDir() + "/escape.tsv"; }
  std::string path_;
};

TEST_F(TsvEscapeTest, RoundTrip) {
  const std::string nasty = "a\tb\nc\rd\\e plain";
  std::string row;
  TsvAppendRow({nasty}, &row);
  // The only raw tab or newline is the row terminator.
  EXPECT_EQ(row.find('\t'), std::string::npos);
  EXPECT_EQ(row.find('\n'), row.size() - 1);
  ASSERT_TRUE(TsvWriteFile(path_, row).ok());
  const std::vector<std::vector<std::string>> expected = {{nasty}};
  EXPECT_EQ(ReadRows(path_), expected);
}

TEST_F(TsvEscapeTest, PlainStringsUntouched) {
  std::string row;
  TsvAppendRow({"hello world"}, &row);
  EXPECT_EQ(row, "hello world\n");
  ASSERT_TRUE(TsvWriteFile(path_, row).ok());
  const std::vector<std::vector<std::string>> expected = {{"hello world"}};
  EXPECT_EQ(ReadRows(path_), expected);
}

TEST_F(TsvEscapeTest, UnknownEscapePreserved) {
  // A trailing lone backslash is preserved too.
  ASSERT_TRUE(TsvWriteFile(path_, "a\\qb\ta\\\n").ok());
  const std::vector<std::vector<std::string>> expected = {{"a\\qb", "a\\"}};
  EXPECT_EQ(ReadRows(path_), expected);
}

class TsvRowTest : public TsvEscapeTest {};

TEST_F(TsvRowTest, FormatAndParse) {
  const std::vector<std::string> fields = {"url", "a\tb", "c"};
  std::string row;
  TsvAppendRow({fields[0], fields[1], fields[2]}, &row);
  EXPECT_EQ(row.back(), '\n');
  ASSERT_TRUE(TsvWriteFile(path_, row).ok());
  const std::vector<std::vector<std::string>> expected = {fields};
  EXPECT_EQ(ReadRows(path_), expected);
}

// File writers append rows into one buffer; each row must come out with
// its escapes, and read back as the fields it was given.
TEST_F(TsvRowTest, AppendRowMatchesFormatRow) {
  std::string contents = "prefix\n";
  TsvAppendRow({"url", "a\tb", "back\\slash", "", "line\nbreak\r"},
               &contents);
  TsvAppendRow({"single"}, &contents);
  EXPECT_EQ(contents,
            "prefix\n"
            "url\ta\\tb\tback\\\\slash\t\tline\\nbreak\\r\n"
            "single\n");
  ASSERT_TRUE(TsvWriteFile(path_, contents).ok());
  const std::vector<std::vector<std::string>> expected = {
      {"prefix"},
      {"url", "a\tb", "back\\slash", "", "line\nbreak\r"},
      {"single"}};
  EXPECT_EQ(ReadRows(path_), expected);
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
  std::string contents;
  TsvAppendRow({"a", "b", "c"}, &contents);
  TsvAppendRow({"d", "e\tf", "g"}, &contents);
  ASSERT_TRUE(TsvWriteFile(path_, contents).ok());

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
  ASSERT_TRUE(TsvWriteFile(path_, "x\ny\n").ok());
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
  std::string contents;
  TsvAppendRow({rows[0][0], rows[0][1], rows[0][2]}, &contents);
  TsvAppendRow({rows[1][0], rows[1][1]}, &contents);
  TsvAppendRow({rows[2][0], rows[2][1], rows[2][2], rows[2][3]}, &contents);
  TsvAppendRow({rows[3][0], rows[3][1]}, &contents);
  ASSERT_TRUE(TsvWriteFile(path_, contents).ok());
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
  std::string contents;
  TsvAppendRow({"before", "x"}, &contents);
  TsvAppendRow({"a", huge, "b"}, &contents);
  TsvAppendRow({"after", "y"}, &contents);
  ASSERT_TRUE(TsvWriteFile(path_, contents).ok());
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
  std::string contents;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({std::to_string(i), std::string(static_cast<size_t>(i % 97), static_cast<char>('a' + i % 26)),
                    i % 5 == 0 ? "esc\t" + std::to_string(i) : "z"});
    TsvAppendRow({rows.back()[0], rows.back()[1], rows.back()[2]}, &contents);
  }
  ASSERT_TRUE(TsvWriteFile(path_, contents).ok());
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
