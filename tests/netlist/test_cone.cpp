#include "netlist/cone.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace netrev::netlist {
namespace {

// Ladder:  y = AND(n1, n2); n1 = NOT(a); n2 = OR(b, q); q = DFF(n1).
struct Fixture {
  Netlist nl;
  NetId a, b, n1, n2, q, y;

  Fixture() {
    a = nl.add_net("a");
    b = nl.add_net("b");
    n1 = nl.add_net("n1");
    n2 = nl.add_net("n2");
    q = nl.add_net("q");
    y = nl.add_net("y");
    nl.mark_primary_input(a);
    nl.mark_primary_input(b);
    nl.add_gate(GateType::kNot, n1, {a});
    nl.add_gate(GateType::kDff, q, {n1});
    nl.add_gate(GateType::kOr, n2, {b, q});
    nl.add_gate(GateType::kAnd, y, {n1, n2});
    nl.mark_primary_output(y);
  }
};

bool contains(const std::vector<NetId>& nets, NetId id) {
  return std::find(nets.begin(), nets.end(), id) != nets.end();
}

TEST(FaninCone, DepthZeroIsJustRoot) {
  Fixture f;
  const auto cone = fanin_cone_nets(f.nl, f.y, 0);
  ASSERT_EQ(cone.size(), 1u);
  EXPECT_EQ(cone[0], f.y);
}

TEST(FaninCone, DepthOneReachesDirectInputs) {
  Fixture f;
  const auto cone = fanin_cone_nets(f.nl, f.y, 1);
  EXPECT_TRUE(contains(cone, f.y));
  EXPECT_TRUE(contains(cone, f.n1));
  EXPECT_TRUE(contains(cone, f.n2));
  EXPECT_FALSE(contains(cone, f.a));
  EXPECT_EQ(cone.size(), 3u);
}

TEST(FaninCone, DepthTwoReachesLeavesAndStopsAtFlop) {
  Fixture f;
  const auto cone = fanin_cone_nets(f.nl, f.y, 2);
  EXPECT_TRUE(contains(cone, f.a));
  EXPECT_TRUE(contains(cone, f.b));
  EXPECT_TRUE(contains(cone, f.q));
  // The flop's D input is on the far side of the sequential boundary.
  const auto deep = fanin_cone_nets(f.nl, f.y, 10);
  EXPECT_EQ(deep.size(), cone.size());
}

TEST(FaninCone, DeduplicatesReconvergence) {
  Fixture f;
  // n1 reaches y via both the direct edge and... only once in result.
  const auto cone = fanin_cone_nets(f.nl, f.y, 3);
  EXPECT_EQ(std::count(cone.begin(), cone.end(), f.n1), 1);
}

TEST(InFaninCone, PositiveAndNegative) {
  Fixture f;
  EXPECT_TRUE(in_fanin_cone(f.nl, f.y, f.a));
  EXPECT_TRUE(in_fanin_cone(f.nl, f.y, f.q));
  EXPECT_FALSE(in_fanin_cone(f.nl, f.y, f.y));   // root itself excluded
  EXPECT_FALSE(in_fanin_cone(f.nl, f.a, f.y));   // wrong direction
  EXPECT_FALSE(in_fanin_cone(f.nl, f.n2, f.n1)); // blocked by flop
}

TEST(ConeLeaves, BoundaryKinds) {
  Fixture f;
  const auto leaves = cone_leaves(f.nl, f.y, 2);
  // Leaves: a (PI), b (PI), q (flop output).
  EXPECT_TRUE(contains(leaves, f.a));
  EXPECT_TRUE(contains(leaves, f.b));
  EXPECT_TRUE(contains(leaves, f.q));
  EXPECT_FALSE(contains(leaves, f.n1));
}

TEST(ConeLeaves, DepthCutLeaves) {
  Fixture f;
  const auto leaves = cone_leaves(f.nl, f.y, 1);
  EXPECT_TRUE(contains(leaves, f.n1));
  EXPECT_TRUE(contains(leaves, f.n2));
  EXPECT_EQ(leaves.size(), 2u);
}

TEST(ConeLeaves, RootIsLeafAtDepthZero) {
  Fixture f;
  const auto leaves = cone_leaves(f.nl, f.y, 0);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], f.y);
}

}  // namespace
}  // namespace netrev::netlist
