#include "common/text.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

namespace netrev {
namespace {

TEST(FormatFixed, FormatsWithRequestedDecimals) {
  EXPECT_EQ(format_fixed(1.0, 2), "1.00");
  EXPECT_EQ(format_fixed(0.675, 3), "0.675");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

TEST(FormatFixed, ZeroDecimals) { EXPECT_EQ(format_fixed(3.7, 0), "4"); }

TEST(FormatFixed, RejectsNegativeDecimals) {
  EXPECT_THROW(format_fixed(1.0, -1), ContractViolation);
}

TEST(FormatPct, ConvertsFractionToPercent) {
  EXPECT_EQ(format_pct(0.714), "71.4");
  EXPECT_EQ(format_pct(0.0), "0.0");
  EXPECT_EQ(format_pct(1.0), "100.0");
}

TEST(Pad, LeftPadsToWidth) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Pad, RightPadsToWidth) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Split, KeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  const auto fields = split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT("));
  EXPECT_FALSE(starts_with("IN", "INPUT("));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_TRUE(ends_with("b03s.bench", ".bench"));
  EXPECT_TRUE(ends_with("top.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
  EXPECT_FALSE(ends_with("b03s.bench.bak", ".bench"));
  EXPECT_TRUE(ends_with("abc", ""));
}

TEST(RenderTable, AlignsColumns) {
  const auto table = render_table({"name", "v"}, {{"x", "10"}, {"long", "2"}});
  EXPECT_NE(table.find("| name | v  |"), std::string::npos);
  EXPECT_NE(table.find("| x    | 10 |"), std::string::npos);
  EXPECT_NE(table.find("| long | 2  |"), std::string::npos);
}

TEST(RenderTable, RejectsRaggedRows) {
  EXPECT_THROW(render_table({"a", "b"}, {{"only-one"}}), ContractViolation);
}

TEST(RenderTable, EmptyBodyStillRendersHeader) {
  const auto table = render_table({"h1"}, {});
  EXPECT_NE(table.find("h1"), std::string::npos);
}

}  // namespace
}  // namespace netrev
