#include "midas/util/string_util.h"

#include <gtest/gtest.h>

namespace midas {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");

  parts = Split("a,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");

  parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");

  parts = Split(",", ',');
  EXPECT_EQ(parts.size(), 2u);
}

TEST(SplitTest, SkipEmpty) {
  auto parts = SplitSkipEmpty("/a//b/", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_TRUE(SplitSkipEmpty("///", '/').empty());
}

TEST(TrimTest, RemovesWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\na b\r\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(CaseTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo-123"), "hello-123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(AffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("http", "http://"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ParseTest, Uint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12a", &v));
  EXPECT_FALSE(ParseUint64("-1", &v));
}

TEST(ParseTest, Double) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(810000000), "810,000,000");
}

TEST(FormatTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
  // Long output beyond any small-buffer optimization.
  std::string long_out = StringPrintf("%0512d", 7);
  EXPECT_EQ(long_out.size(), 512u);
}

}  // namespace
}  // namespace midas
