#include "wordrec/assignment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace netrev::wordrec {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Builder {
  Netlist nl;

  NetId pi(const std::string& name) {
    const NetId id = nl.add_net(name);
    nl.mark_primary_input(id);
    return id;
  }
  NetId gate(GateType type, const std::string& name,
             std::initializer_list<NetId> ins) {
    const NetId id = nl.add_net(name);
    nl.add_gate(type, id, ins);
    return id;
  }
};

using Seed = std::pair<NetId, bool>;

TEST(AssignmentMap, AssignAndConflict) {
  AssignmentMap map;
  EXPECT_TRUE(map.assign(NetId(1), true));
  EXPECT_TRUE(map.assign(NetId(1), true));   // idempotent
  EXPECT_FALSE(map.assign(NetId(1), false)); // conflict
  EXPECT_EQ(map.value(NetId(1)), true);
  EXPECT_EQ(map.value(NetId(2)), std::nullopt);
  EXPECT_TRUE(map.contains(NetId(1)));
  EXPECT_EQ(map.size(), 1u);
}

TEST(AssignmentMap, ResetForgetsEveryValue) {
  AssignmentMap map;
  map.reset(8);
  for (std::uint32_t id = 0; id < 8; ++id)
    ASSERT_TRUE(map.assign(NetId(id), id % 2 == 0));
  map.reset(8);
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.entries().empty());
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(map.value(NetId(id)), std::nullopt) << id;
    EXPECT_FALSE(map.contains(NetId(id))) << id;
  }
  // The opposite value is no conflict once the old one is forgotten.
  EXPECT_TRUE(map.assign(NetId(0), false));
  EXPECT_EQ(map.value(NetId(0)), false);
  EXPECT_EQ(map.size(), 1u);
}

TEST(AssignmentMap, ReusedOnLargerThenSmallerDesign) {
  // A NOT chain of `length` gates below one primary input.
  const auto chain = [](std::size_t length) {
    Builder b;
    NetId last = b.pi("a");
    for (std::size_t i = 0; i < length; ++i)
      last = b.gate(GateType::kNot, "n" + std::to_string(i), {last});
    return b.nl;
  };
  const Netlist small = chain(3);
  const Netlist large = chain(40);
  const auto small_view = netlist::CompactView::build(small);
  const auto large_view = netlist::CompactView::build(large);
  const Seed seeds[] = {{NetId(0), true}};

  AssignmentMap map;
  ASSERT_TRUE(propagate(small_view, seeds, map));
  EXPECT_EQ(map.size(), 4u);
  ASSERT_TRUE(propagate(large_view, seeds, map));
  EXPECT_EQ(map.size(), 41u);
  EXPECT_EQ(map.value(NetId(40)), true);  // 40 inversions of a=1
  ASSERT_TRUE(propagate(small_view, seeds, map));
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.value(NetId(3)), false);
  // Nets the larger design left behind read as unassigned.
  for (std::uint32_t id = 4; id <= 40; ++id)
    EXPECT_FALSE(map.contains(NetId(id))) << id;
  const auto reference = propagate(small, seeds);
  EXPECT_TRUE(std::ranges::equal(map.entries(), reference.map.entries()));
}

TEST(AssignmentMap, AssignGrowsHandBuiltMap) {
  AssignmentMap map;
  EXPECT_EQ(map.value(NetId(5000)), std::nullopt);  // beyond every slot
  EXPECT_TRUE(map.assign(NetId(1000), true));
  EXPECT_EQ(map.value(NetId(1000)), true);
  EXPECT_EQ(map.value(NetId(999)), std::nullopt);
  EXPECT_EQ(map.value(NetId(5000)), std::nullopt);
  EXPECT_TRUE(map.assign(NetId(3), false));
  EXPECT_FALSE(map.assign(NetId(1000), false));
  EXPECT_EQ(map.size(), 2u);
}

TEST(AssignmentMap, EntriesKeepAssignmentOrder) {
  AssignmentMap map;
  EXPECT_TRUE(map.assign(NetId(7), true));
  EXPECT_TRUE(map.assign(NetId(2), false));
  EXPECT_TRUE(map.assign(NetId(7), true));    // repeat: no new entry
  EXPECT_FALSE(map.assign(NetId(2), true));   // conflict: no new entry
  EXPECT_TRUE(map.assign(NetId(9), true));
  const std::vector<Seed> expected = {
      {NetId(7), true}, {NetId(2), false}, {NetId(9), true}};
  EXPECT_TRUE(std::ranges::equal(map.entries(), expected));
}

TEST(Propagate, CsrEngineFollowsReferenceFifoOrder) {
  // y = AND(a, c) with y = 1 forces a then c; n = NOT(a) follows a and
  // m = NOT(c) follows c.  FIFO processes a before c, so n precedes m (a
  // LIFO worklist would assign m first).
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  const NetId n = b.gate(GateType::kNot, "n", {a});
  const NetId m = b.gate(GateType::kNot, "m", {c});
  const Seed seeds[] = {{y, true}};
  AssignmentMap map;
  ASSERT_TRUE(propagate(netlist::CompactView::build(b.nl), seeds, map));
  const std::vector<Seed> expected = {
      {y, true}, {a, true}, {c, true}, {n, false}, {m, false}};
  EXPECT_TRUE(std::ranges::equal(map.entries(), expected));
  EXPECT_TRUE(std::ranges::equal(propagate(b.nl, seeds).map.entries(),
                                 expected));
}

TEST(Propagate, ForwardThroughControllingInput) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kNand, "y", {a, c});
  const Seed seeds[] = {{a, false}};
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.map.value(y), true);
  EXPECT_EQ(result.map.value(c), std::nullopt);
}

TEST(Propagate, ForwardWhenAllInputsKnown) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kXor, "y", {a, c});
  const Seed seeds[] = {{a, true}, {c, true}};
  const auto result = propagate(b.nl, seeds);
  EXPECT_EQ(result.map.value(y), false);
}

TEST(Propagate, ForwardCascades) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId n1 = b.gate(GateType::kNot, "n1", {a});
  const NetId n2 = b.gate(GateType::kNot, "n2", {n1});
  const Seed seeds[] = {{a, true}};
  const auto result = propagate(b.nl, seeds);
  EXPECT_EQ(result.map.value(n1), false);
  EXPECT_EQ(result.map.value(n2), true);
}

TEST(Propagate, BackwardForcesAllInputs) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kNand, "y", {a, c});
  const Seed seeds[] = {{y, false}};  // NAND out 0 -> all inputs 1
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.map.value(a), true);
  EXPECT_EQ(result.map.value(c), true);
}

TEST(Propagate, BackwardSoleUnknownRule) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  // y=0 with a=1 forces c=0 (the sole remaining input must control).
  const Seed seeds[] = {{y, false}, {a, true}};
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.map.value(c), false);
}

TEST(Propagate, BackwardXorCompletesParity) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kXor, "y", {a, c});
  const Seed seeds[] = {{y, true}, {a, true}};
  const auto result = propagate(b.nl, seeds);
  EXPECT_EQ(result.map.value(c), false);
}

TEST(Propagate, BackwardThroughInverterChain) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId n1 = b.gate(GateType::kNot, "n1", {a});
  const NetId n2 = b.gate(GateType::kNot, "n2", {n1});
  const Seed seeds[] = {{n2, false}};
  const auto result = propagate(b.nl, seeds);
  EXPECT_EQ(result.map.value(n1), true);
  EXPECT_EQ(result.map.value(a), false);
}

TEST(Propagate, NorBackwardControlledOutputIsUninformative) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kNor, "y", {a, c});
  const Seed seeds[] = {{y, false}};  // at least one input 1; not forced
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.map.value(a), std::nullopt);
  EXPECT_EQ(result.map.value(c), std::nullopt);
}

TEST(Propagate, DetectsDirectConflict) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId n1 = b.gate(GateType::kNot, "n1", {a});
  const Seed seeds[] = {{a, true}, {n1, true}};
  EXPECT_FALSE(propagate(b.nl, seeds).feasible);
}

TEST(Propagate, DetectsDeepConflict) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  // y=1 forces both inputs 1; a=0 contradicts.
  const Seed seeds[] = {{y, true}, {a, false}};
  EXPECT_FALSE(propagate(b.nl, seeds).feasible);
}

TEST(Propagate, ConstGateConsistency) {
  Builder b;
  const NetId one = b.gate(GateType::kConst1, "one", {});
  const Seed bad[] = {{one, false}};
  EXPECT_FALSE(propagate(b.nl, bad).feasible);
  const Seed good[] = {{one, true}};
  EXPECT_TRUE(propagate(b.nl, good).feasible);
}

TEST(Propagate, NeverCrossesFlops) {
  Builder b;
  const NetId d = b.pi("d");
  const NetId q = b.nl.add_net("q");
  b.nl.add_gate(GateType::kDff, q, {d});
  const NetId y = b.gate(GateType::kNot, "y", {q});

  const Seed fwd[] = {{d, true}};
  EXPECT_EQ(propagate(b.nl, fwd).map.value(q), std::nullopt);

  const Seed bwd[] = {{q, true}};
  const auto result = propagate(b.nl, bwd);
  EXPECT_EQ(result.map.value(d), std::nullopt);
  EXPECT_EQ(result.map.value(y), false);  // forward from Q still works
}

TEST(Propagate, ClosureProperty) {
  // Whenever an input of a gate holds its controlling value, the output is
  // in the map too (hash_key.cpp and reduce.cpp rely on this).
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c"), d = b.pi("d");
  const NetId m = b.gate(GateType::kOr, "m", {a, c});
  const NetId y = b.gate(GateType::kAnd, "y", {m, d});
  const NetId z = b.gate(GateType::kNor, "z", {y, c});
  const Seed seeds[] = {{a, true}};
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  for (std::size_t g = 0; g < b.nl.gate_count(); ++g) {
    const auto& gate = b.nl.gate(b.nl.gate_id_at(g));
    const auto cv = controlling_value(gate.type);
    if (!cv) continue;
    bool has_controlling = false;
    for (NetId in : gate.inputs)
      if (result.map.value(in) == *cv) has_controlling = true;
    if (has_controlling) {
      EXPECT_TRUE(result.map.contains(gate.output))
          << "closure violated at gate " << g;
    }
  }
  (void)z;
}

TEST(Propagate, SoleUnknownFiresWhenInputArrivesAfterOutput) {
  // Regression for the ordering case: output assigned first, an input
  // assigned later completes the implication.
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c"), t = b.pi("t");
  const NetId y = b.gate(GateType::kOr, "y", {a, c});
  const NetId buf = b.gate(GateType::kBuf, "buf", {t});
  // Seeds: y=1 first (no implication yet), then a=0 via buf chain... drive
  // a directly in second seed to exercise queue ordering.
  const Seed seeds[] = {{y, true}, {a, false}};
  const auto result = propagate(b.nl, seeds);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.map.value(c), true);
  (void)buf;
}

}  // namespace
}  // namespace netrev::wordrec
