#include "midas/eval/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/test_dir.h"
#include "midas/core/slice_io.h"

namespace midas {
namespace eval {
namespace {

TEST(ExperimentReportTest, BuildsDocument) {
  ExperimentReport report("fig9_coverage");
  report.SetContext("dataset", "ReVerb-Slim-like");
  report.SetContext("seed", "11");
  report.AddRow("MIDAS", 0.0, {{"f_measure", 0.99}});
  report.AddRow("Greedy", 0.0, {{"f_measure", 0.53}});

  std::string json = report.ToJson().Dump();
  EXPECT_NE(json.find("\"experiment\":\"fig9_coverage\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dataset\":\"ReVerb-Slim-like\""),
            std::string::npos);
  EXPECT_NE(json.find("\"series\":\"MIDAS\""), std::string::npos);
  EXPECT_NE(json.find("\"f_measure\":0.99"), std::string::npos);
  EXPECT_EQ(report.num_rows(), 2u);
}

TEST(ExperimentReportTest, SetContextReplaces) {
  ExperimentReport report("x");
  report.SetContext("k", "a");
  report.SetContext("k", "b");
  std::string json = report.ToJson().Dump();
  EXPECT_EQ(json.find("\"k\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"b\""), std::string::npos);
}

TEST(ExperimentReportTest, AddPrfRow) {
  ExperimentReport report("x");
  PrfScores scores;
  scores.precision = 0.5;
  scores.recall = 1.0;
  scores.f_measure = 2.0 / 3.0;
  scores.returned = 4;
  scores.matched = 2;
  scores.expected = 2;
  report.AddPrfRow("MIDAS", 0.4, scores);
  std::string json = report.ToJson().Dump();
  EXPECT_NE(json.find("\"precision\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"returned\":4"), std::string::npos);
}

TEST(ExperimentReportTest, WriteToFile) {
  std::string path = tests::TestDir() + "/report.json";
  ExperimentReport report("smoke");
  report.AddRow("s", 1.0, {{"v", 2.0}});
  ASSERT_TRUE(report.WriteTo(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"experiment\": \"smoke\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SlicesToJsonTest, SerializesAndLimits) {
  rdf::Dictionary dict;
  std::vector<core::DiscoveredSlice> slices(3);
  for (size_t i = 0; i < slices.size(); ++i) {
    slices[i].source_url = "http://x.com/" + std::to_string(i);
    slices[i].profit = static_cast<double>(i);
    slices[i].properties.push_back(core::PropertyPair{
        dict.Intern("cat"), dict.Intern("v" + std::to_string(i))});
  }
  JsonValue all = core::SlicesToJson(slices, dict);
  EXPECT_EQ(all.size(), 3u);
  JsonValue limited = core::SlicesToJson(slices, dict, 2);
  EXPECT_EQ(limited.size(), 2u);
  EXPECT_NE(all.Dump().find("cat=v1"), std::string::npos);
  // The `discover --json` / `/discover` row, field for field.
  EXPECT_EQ(all.at(1).Dump(),
            "{\"source_url\":\"http://x.com/1\",\"description\":\"cat=v1\","
            "\"properties\":[{\"predicate\":\"cat\",\"value\":\"v1\"}],"
            "\"num_facts\":0,\"num_new_facts\":0,\"profit\":1}");
}

}  // namespace
}  // namespace eval
}  // namespace midas
