#include "netlist/dot.h"

#include <gtest/gtest.h>

namespace netrev::netlist {
namespace {

struct Fixture {
  Netlist nl;
  NetId a, b, y, z;

  Fixture() {
    a = nl.add_net("a");
    b = nl.add_net("odd\"name");
    y = nl.add_net("y");
    z = nl.add_net("z");
    nl.mark_primary_input(a);
    nl.mark_primary_input(b);
    nl.add_gate(GateType::kNand, y, {a, b});
    nl.add_gate(GateType::kDff, z, {y});
    nl.mark_primary_output(z);
  }
};

TEST(Dot, EmitsNodesAndEdges) {
  Fixture f;
  const std::string dot = to_dot(CompactView::build(f.nl));
  EXPECT_NE(dot.find("digraph netlist"), std::string::npos);
  EXPECT_NE(dot.find("NAND"), std::string::npos);
  EXPECT_NE(dot.find("INPUT"), std::string::npos);
  // Edge from a to y.
  EXPECT_NE(dot.find("n0 -> n2"), std::string::npos);
}

TEST(Dot, FlopEdgesAreDashed) {
  Fixture f;
  const std::string dot = to_dot(CompactView::build(f.nl));
  EXPECT_NE(dot.find("n2 -> n3 [style=dashed]"), std::string::npos);
}

TEST(Dot, EscapesLabelCharacters) {
  Fixture f;
  const std::string dot = to_dot(CompactView::build(f.nl));
  EXPECT_NE(dot.find("odd\\\"name"), std::string::npos);
}

TEST(Dot, HighlightsClusterWords) {
  Fixture f;
  DotOptions options;
  options.highlights.push_back({"word 0", {f.y}});
  const std::string dot = to_dot(CompactView::build(f.nl), options);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  EXPECT_NE(dot.find("legend0"), std::string::npos);
}

TEST(Dot, ConeDepthLimitsOutput) {
  Fixture f;
  DotOptions options;
  options.highlights.push_back({"w", {f.y}});
  options.cone_depth = 1;
  const std::string dot = to_dot(CompactView::build(f.nl), options);
  // z (downstream flop) is outside y's fanin cone.
  EXPECT_EQ(dot.find("\\nz"), std::string::npos);
  EXPECT_NE(dot.find("\\ny"), std::string::npos);
}

TEST(Dot, NamesCanBeSuppressed) {
  Fixture f;
  DotOptions options;
  options.show_net_names = false;
  const std::string dot = to_dot(CompactView::build(f.nl), options);
  EXPECT_EQ(dot.find("\\ny"), std::string::npos);
}

}  // namespace
}  // namespace netrev::netlist
