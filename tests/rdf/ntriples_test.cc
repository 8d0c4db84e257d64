#include "midas/rdf/ntriples.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/test_dir.h"

namespace midas {
namespace rdf {
namespace {

TEST(NTriplesParseTest, IriTriple) {
  std::vector<std::string> terms;
  ASSERT_TRUE(ParseNTriplesLine(
                  "<http://x/s> <http://x/p> <http://x/o> .", &terms)
                  .ok());
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0], "http://x/s");
  EXPECT_EQ(terms[2], "http://x/o");
}

TEST(NTriplesParseTest, LiteralObject) {
  std::vector<std::string> terms;
  ASSERT_TRUE(
      ParseNTriplesLine("<s> <p> \"a literal\" .", &terms).ok());
  EXPECT_EQ(terms[2], "a literal");
}

TEST(NTriplesParseTest, EscapedLiteral) {
  std::vector<std::string> terms;
  ASSERT_TRUE(ParseNTriplesLine("<s> <p> \"line\\nbreak \\\"q\\\"\" .",
                                &terms)
                  .ok());
  EXPECT_EQ(terms[2], "line\nbreak \"q\"");
}

TEST(NTriplesParseTest, WhitespaceTolerant) {
  std::vector<std::string> terms;
  ASSERT_TRUE(
      ParseNTriplesLine("   <s>\t<p>   \"o\"   .  ", &terms).ok());
  EXPECT_EQ(terms[0], "s");
}

TEST(NTriplesParseTest, Malformed) {
  std::vector<std::string> terms;
  EXPECT_FALSE(ParseNTriplesLine("", &terms).ok());
  EXPECT_FALSE(ParseNTriplesLine("# comment", &terms).ok());
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> .", &terms).ok());
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"o\"", &terms).ok());  // no dot
  EXPECT_FALSE(ParseNTriplesLine("<s <p> \"o\" .", &terms).ok());
  EXPECT_FALSE(ParseNTriplesLine("<s> <p> \"unterminated .", &terms).ok());
  EXPECT_FALSE(ParseNTriplesLine("s p o .", &terms).ok());
}

TEST(NTriplesFormatTest, ObjectKindDetection) {
  EXPECT_EQ(FormatNTriplesLine("s", "p", "http://o"),
            "<s> <p> <http://o> .");
  EXPECT_EQ(FormatNTriplesLine("s", "p", "plain text"),
            "<s> <p> \"plain text\" .");
  EXPECT_EQ(FormatNTriplesLine("s", "p", "with \"quote\""),
            "<s> <p> \"with \\\"quote\\\"\" .");
}

class NTriplesFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tests::TestDir() + "/test.nt";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(NTriplesFileTest, SaveLoadRoundTrip) {
  Dictionary dict;
  std::vector<Triple> triples = {
      Triple(dict.Intern("Atlas"), dict.Intern("sponsor"),
             dict.Intern("NASA")),
      Triple(dict.Intern("Atlas"), dict.Intern("page"),
             dict.Intern("http://space.skyrocket.de/atlas.htm")),
  };
  ASSERT_TRUE(SaveNTriplesFile(path_, dict, triples).ok());

  Dictionary dict2;
  std::vector<Triple> loaded;
  ASSERT_TRUE(LoadNTriplesFile(path_, &dict2, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(dict2.Term(loaded[0].subject), "Atlas");
  EXPECT_EQ(dict2.Term(loaded[0].object), "NASA");
  EXPECT_EQ(dict2.Term(loaded[1].object),
            "http://space.skyrocket.de/atlas.htm");
}

TEST_F(NTriplesFileTest, LoadReportsLineOfError) {
  {
    std::ofstream out(path_);
    out << "<s> <p> \"good\" .\n";
    out << "broken line\n";
  }
  Dictionary dict;
  std::vector<Triple> loaded;
  Status s = LoadNTriplesFile(path_, &dict, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find(":2"), std::string::npos);
}

TEST_F(NTriplesFileTest, TsvFactsRoundTrip) {
  Dictionary dict;
  std::vector<Triple> triples = {
      Triple(dict.Intern("s1"), dict.Intern("p"), dict.Intern("o with space")),
  };
  ASSERT_TRUE(SaveTsvFacts(path_, dict, triples).ok());
  Dictionary dict2;
  std::vector<Triple> loaded;
  ASSERT_TRUE(LoadTsvFacts(path_, &dict2, &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(dict2.Term(loaded[0].object), "o with space");
}

TEST_F(NTriplesFileTest, TsvFactsRejectWrongColumnCount) {
  {
    std::ofstream out(path_);
    out << "a\tb\n";
  }
  Dictionary dict;
  std::vector<Triple> loaded;
  EXPECT_EQ(LoadTsvFacts(path_, &dict, &loaded).code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace rdf
}  // namespace midas
