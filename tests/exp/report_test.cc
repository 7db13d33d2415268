#include "src/exp/report.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dcs {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "22"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_NE(out.find("+-------------+-------+"), std::string::npos);
}

TEST(TextTableTest, EmptyTableStillPrintsHeader) {
  TextTable table({"col"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("col"), std::string::npos);
}

TEST(TextTableTest, FixedFormatting) {
  EXPECT_EQ(TextTable::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Fixed(3.0, 0), "3");
  EXPECT_EQ(TextTable::Fixed(-1.005, 1), "-1.0");
}

TEST(TextTableTest, PercentFormatting) {
  EXPECT_EQ(TextTable::Percent(0.756), "75.6%");
  EXPECT_EQ(TextTable::Percent(1.0, 0), "100%");
}

TEST(PrintHeadingTest, Format) {
  std::ostringstream os;
  PrintHeading(os, "Table 2");
  EXPECT_EQ(os.str(), "\n=== Table 2 ===\n\n");
}

}  // namespace
}  // namespace dcs
