#include <gtest/gtest.h>

#include "src/common/strings.h"

namespace scalecheck {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutputsAllocateCorrectly) {
  std::string big(5000, 'a');
  std::string out = StrFormat("%s!", big.c_str());
  EXPECT_EQ(out.size(), 5001u);
  EXPECT_EQ(out.back(), '!');
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(RenderTableTest, AlignsColumns) {
  std::string table = RenderTable({"name", "v"}, {{"x", "10"}, {"longer", "2"}});
  EXPECT_EQ(table,
            "| name   | v  |\n"
            "|--------|----|\n"
            "| x      | 10 |\n"
            "| longer | 2  |\n");
  // Columns are counted in characters, not UTF-8 bytes.
  EXPECT_EQ(RenderTable({"q1–q3"}, {{"x"}}),
            "| q1–q3 |\n"
            "|-------|\n"
            "| x     |\n");
}

TEST(HumanCountTest, PicksSuffixes) {
  EXPECT_EQ(HumanCount(950), "950");
  EXPECT_EQ(HumanCount(12300), "12.3k");
  EXPECT_EQ(HumanCount(4.5e6), "4.5M");
  EXPECT_EQ(HumanCount(2e9), "2G");
}

TEST(HumanBytesTest, PicksSuffixes) {
  EXPECT_EQ(HumanBytes(512), "512.00B");
  EXPECT_EQ(HumanBytes(2048), "2.00KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.00MiB");
  EXPECT_EQ(HumanBytes(32LL * 1024 * 1024 * 1024), "32.00GiB");
}

}  // namespace
}  // namespace scalecheck
