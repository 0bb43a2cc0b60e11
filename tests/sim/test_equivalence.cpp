#include "support/equivalence.h"

#include <gtest/gtest.h>

#include "wordrec/assignment.h"
#include "wordrec/reduce.h"

namespace netrev::sim {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using testing::check_implications;
using testing::check_reduction_equivalence;

// ctrl = NOR(a, b); y = NAND(ctrl, c); z = AND(y, d).
struct Fixture {
  Netlist nl;
  NetId a, b, c, d, ctrl, y, z;

  Fixture() {
    a = nl.add_net("a");
    b = nl.add_net("b");
    c = nl.add_net("c");
    d = nl.add_net("d");
    ctrl = nl.add_net("ctrl");
    y = nl.add_net("y");
    z = nl.add_net("z");
    for (NetId in : {a, b, c, d}) nl.mark_primary_input(in);
    nl.add_gate(GateType::kNor, ctrl, {a, b});
    nl.add_gate(GateType::kNand, y, {ctrl, c});
    nl.add_gate(GateType::kAnd, z, {y, d});
    nl.mark_primary_output(z);
  }
};

TEST(ImplicationCheck, SoundImplicationsPass) {
  Fixture f;
  // ctrl = 0 implies y = 1 (NAND with controlling 0).
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  std::unordered_map<NetId, bool> implied{{f.y, true}};
  const auto result = check_implications(f.nl, seeds, implied, 400, 7);
  EXPECT_GT(result.vectors_applicable, 0u);
  EXPECT_TRUE(result.ok());
}

TEST(ImplicationCheck, UnsoundImplicationsFail) {
  Fixture f;
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  std::unordered_map<NetId, bool> implied{{f.z, true}};  // wrong: depends on d
  const auto result = check_implications(f.nl, seeds, implied, 400, 7);
  EXPECT_GT(result.vectors_applicable, 0u);
  EXPECT_FALSE(result.ok());
}

TEST(ImplicationCheck, PropagationClosureIsSound) {
  Fixture f;
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  const auto prop = wordrec::propagate(f.nl, seeds);
  ASSERT_TRUE(prop.feasible);
  std::unordered_map<NetId, bool> implied(prop.map.entries().begin(),
                                          prop.map.entries().end());
  const auto result = check_implications(f.nl, seeds, implied, 500, 11);
  EXPECT_GT(result.vectors_applicable, 0u);
  EXPECT_TRUE(result.ok()) << result.violations << " violations";
}

TEST(ReductionCheck, MaterializedReductionIsEquivalent) {
  Fixture f;
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  const auto prop = wordrec::propagate(f.nl, seeds);
  ASSERT_TRUE(prop.feasible);
  const Netlist reduced = wordrec::materialize_reduction(f.nl, prop.map);
  const auto result =
      check_reduction_equivalence(f.nl, reduced, seeds, 500, 13);
  EXPECT_GT(result.vectors_applicable, 0u);
  EXPECT_TRUE(result.ok()) << result.mismatches << " mismatches";
}

TEST(ReductionCheck, DetectsWrongReduction) {
  Fixture f;
  // A bogus "reduced" netlist that inverts z's logic.
  Netlist bogus;
  const NetId y = bogus.add_net("y");
  const NetId d = bogus.add_net("d");
  const NetId z = bogus.add_net("z");
  bogus.mark_primary_input(y);
  bogus.mark_primary_input(d);
  bogus.add_gate(GateType::kNor, z, {y, d});
  bogus.mark_primary_output(z);
  const std::pair<NetId, bool> seeds[] = {{f.ctrl, false}};
  const auto result = check_reduction_equivalence(f.nl, bogus, seeds, 400, 17);
  EXPECT_FALSE(result.ok());
}

TEST(ImplicationCheck, InapplicableSeedsCountNothing) {
  Fixture f;
  // a=1 forces ctrl=0; asking for ctrl=1 with a=1... seed on two nets that
  // conflict under every vector: ctrl=1 requires a=0 and b=0.
  const std::pair<NetId, bool> seeds[] = {{f.a, true}, {f.ctrl, true}};
  std::unordered_map<NetId, bool> implied{};
  const auto result = check_implications(f.nl, seeds, implied, 200, 3);
  EXPECT_EQ(result.vectors_applicable, 0u);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace netrev::sim
