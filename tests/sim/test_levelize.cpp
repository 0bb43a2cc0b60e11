#include "support/levelize.h"

#include <gtest/gtest.h>

#include <unordered_map>

namespace netrev::sim {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using testing::levelize;

TEST(Levelize, EmptyNetlist) {
  EXPECT_TRUE(levelize(Netlist{}).empty());
}

TEST(Levelize, RespectsDependencies) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  const NetId n3 = nl.add_net("n3");
  // Deliberately create gates in reverse dependency order.
  const GateId g3 = nl.add_gate(GateType::kNot, n3, {n2});
  const GateId g2 = nl.add_gate(GateType::kNot, n2, {n1});
  const GateId g1 = nl.add_gate(GateType::kNot, n1, {a});
  nl.mark_primary_output(n3);

  const auto order = levelize(nl);
  ASSERT_EQ(order.size(), 3u);
  std::unordered_map<std::uint32_t, std::size_t> position;
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i].value()] = i;
  EXPECT_LT(position[g1.value()], position[g2.value()]);
  EXPECT_LT(position[g2.value()], position[g3.value()]);
}

TEST(Levelize, FlopsDoNotCreateDependencies) {
  // q = DFF(x); x = NOT(q): legal sequential loop.
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId x = nl.add_net("x");
  nl.add_gate(GateType::kDff, q, {x});
  nl.add_gate(GateType::kNot, x, {q});
  nl.mark_primary_output(q);
  EXPECT_EQ(levelize(nl).size(), 2u);
}

TEST(Levelize, FlopOrderedAfterItsDLogic) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  const GateId flop = nl.add_gate(GateType::kDff, q, {d});
  const GateId logic = nl.add_gate(GateType::kNot, d, {a});
  nl.mark_primary_output(q);
  const auto order = levelize(nl);
  std::unordered_map<std::uint32_t, std::size_t> position;
  for (std::size_t i = 0; i < order.size(); ++i)
    position[order[i].value()] = i;
  EXPECT_LT(position[logic.value()], position[flop.value()]);
}

TEST(Levelize, ThrowsOnCombinationalCycle) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {a, x});
  nl.mark_primary_output(y);
  EXPECT_THROW(levelize(nl), std::runtime_error);
}

TEST(Levelize, CycleErrorNamesTheMemberNets) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {a, x});
  nl.mark_primary_output(y);
  try {
    levelize(nl);
    FAIL() << "expected a cycle error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("x -> y -> x"), std::string::npos) << what;
    EXPECT_NE(what.find("1 cycle(s)"), std::string::npos) << what;
  }
}

TEST(Levelize, CycleErrorReportsEveryLoopIntoDiagnostics) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x1 = nl.add_net("x1");
  const NetId y1 = nl.add_net("y1");
  nl.add_gate(GateType::kAnd, x1, {a, y1});
  nl.add_gate(GateType::kBuf, y1, {x1});
  const NetId x2 = nl.add_net("x2");
  const NetId y2 = nl.add_net("y2");
  nl.add_gate(GateType::kOr, x2, {a, y2});
  nl.add_gate(GateType::kBuf, y2, {x2});
  nl.mark_primary_output(y1);
  nl.mark_primary_output(y2);

  diag::Diagnostics diags;
  EXPECT_THROW(levelize(nl, &diags), std::runtime_error);
  EXPECT_EQ(diags.error_count(), 2u);
  EXPECT_NE(diags.to_string().find("x1 -> y1 -> x1"), std::string::npos);
  EXPECT_NE(diags.to_string().find("x2 -> y2 -> x2"), std::string::npos);
}

}  // namespace
}  // namespace netrev::sim
