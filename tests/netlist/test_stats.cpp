#include "netlist/stats.h"

#include <gtest/gtest.h>

namespace netrev::netlist {
namespace {

// in -> NOT -> AND(in2) -> DFF -> out; depth 2 combinational.
Netlist sample() {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId n = nl.add_net("n");
  const NetId x = nl.add_net("x");
  const NetId q = nl.add_net("q");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kNot, n, {a});
  nl.add_gate(GateType::kAnd, x, {n, b});
  nl.add_gate(GateType::kDff, q, {x});
  nl.mark_primary_output(q);
  return nl;
}

TEST(Stats, CountsEverything) {
  const NetlistStats stats = compute_stats(sample());
  EXPECT_EQ(stats.gates, 3u);
  EXPECT_EQ(stats.nets, 5u);
  EXPECT_EQ(stats.flops, 1u);
  EXPECT_EQ(stats.primary_inputs, 2u);
  EXPECT_EQ(stats.primary_outputs, 1u);
  EXPECT_EQ(stats.by_type[static_cast<std::size_t>(GateType::kNot)], 1u);
  EXPECT_EQ(stats.by_type[static_cast<std::size_t>(GateType::kAnd)], 1u);
  EXPECT_EQ(stats.by_type[static_cast<std::size_t>(GateType::kDff)], 1u);
}

TEST(Stats, ToStringMentionsCounts) {
  const std::string text = compute_stats(sample()).to_string();
  EXPECT_NE(text.find("gates=3"), std::string::npos);
  EXPECT_NE(text.find("flops=1"), std::string::npos);
  EXPECT_NE(text.find("AND=1"), std::string::npos);
}

TEST(Stats, EmptyNetlist) {
  const NetlistStats stats = compute_stats(Netlist{});
  EXPECT_EQ(stats.gates, 0u);
  EXPECT_EQ(stats.nets, 0u);
}

TEST(FaninProfile, AveragesOverCombinationalGates) {
  const FaninProfile profile = compute_fanin_profile(sample());
  EXPECT_EQ(profile.max_fanin, 2u);
  EXPECT_DOUBLE_EQ(profile.average_fanin, 1.5);  // NOT(1) and AND(2)
}

TEST(FaninProfile, EmptyNetlistIsZero) {
  const FaninProfile profile = compute_fanin_profile(Netlist{});
  EXPECT_EQ(profile.max_fanin, 0u);
  EXPECT_DOUBLE_EQ(profile.average_fanin, 0.0);
}

TEST(Depth, CountsLongestCombinationalPath) {
  EXPECT_EQ(combinational_depth(CompactView::build(sample())), 2u);
}

TEST(Depth, FlopsCutPaths) {
  // chain: a -> NOT -> DFF -> NOT -> out: two depth-1 segments.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId n1 = nl.add_net("n1");
  const NetId q = nl.add_net("q");
  const NetId n2 = nl.add_net("n2");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kNot, n1, {a});
  nl.add_gate(GateType::kDff, q, {n1});
  nl.add_gate(GateType::kNot, n2, {q});
  nl.mark_primary_output(n2);
  EXPECT_EQ(combinational_depth(CompactView::build(nl)), 1u);
}

TEST(Depth, DeepChain) {
  Netlist nl;
  NetId prev = nl.add_net("a");
  nl.mark_primary_input(prev);
  for (int i = 0; i < 10; ++i) {
    const NetId next = nl.add_net("n" + std::to_string(i));
    nl.add_gate(GateType::kNot, next, {prev});
    prev = next;
  }
  nl.mark_primary_output(prev);
  EXPECT_EQ(combinational_depth(CompactView::build(nl)), 10u);
}

TEST(Depth, CyclicViewHasNoDepth) {
  // x = AND(a, y), y = OR(x, a): no path length is finite around the loop.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {x, a});
  nl.mark_primary_output(y);
  EXPECT_EQ(combinational_depth(CompactView::build(nl)), std::nullopt);
}

}  // namespace
}  // namespace netrev::netlist
