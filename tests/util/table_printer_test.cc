#include "midas/util/table_printer.h"

#include <gtest/gtest.h>

namespace midas {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"method", "precision"});
  t.AddRow({"MIDAS", "0.9"});
  t.AddRow({"AggCluster", "0.5"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| method     |"), std::string::npos);
  EXPECT_NE(out.find("| MIDAS      |"), std::string::npos);
  EXPECT_NE(out.find("| AggCluster |"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  std::string out = t.ToString();
  // Row renders with empty cells, no crash, 4 rules (top, header, bottom).
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
}

TEST(TablePrinterTest, ExtraCellsDropped) {
  TablePrinter t({"a"});
  t.AddRow({"1", "overflow"});
  std::string out = t.ToString();
  EXPECT_EQ(out.find("overflow"), std::string::npos);
}

TEST(TablePrinterTest, WideCellExpandsColumn) {
  TablePrinter t({"h"});
  t.AddRow({"very-long-content"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| very-long-content |"), std::string::npos);
  EXPECT_NE(out.find("| h                 |"), std::string::npos);
}

}  // namespace
}  // namespace midas
