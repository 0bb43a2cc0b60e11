#include "wordrec/reduce.h"

#include <gtest/gtest.h>

#include "netlist/random_netlist.h"
#include "netlist/validate.h"
#include "support/equivalence.h"
#include "wordrec/hash_key.h"

namespace netrev::wordrec {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Builder {
  Netlist nl;
  Options options;

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

struct Fixture : Builder {
  NetId ctrl, x, y, e, root;

  Fixture() {
    ctrl = pi("ctrl");
    x = pi("x");
    y = pi("y");
    const NetId s1 = gate(GateType::kAnd, "s1", {x, y});
    const NetId s2 = gate(GateType::kOr, "s2", {x, y});
    e = gate(GateType::kNand, "e", {ctrl, x});
    root = gate(GateType::kNand, "root", {s1, s2, e});
    nl.mark_primary_output(root);
  }
};

TEST(Reduce, RemovesAssignedGatesAndNets) {
  Fixture f;
  const Seed seeds[] = {{f.ctrl, false}};
  const auto prop = propagate(f.nl, seeds);
  ASSERT_TRUE(prop.feasible);
  const Netlist reduced = materialize_reduction(f.nl, prop.map);
  // ctrl and e vanish; root sheds the e input.
  EXPECT_FALSE(reduced.find_net("ctrl").has_value());
  EXPECT_FALSE(reduced.find_net("e").has_value());
  const auto root = reduced.find_net("root");
  ASSERT_TRUE(root.has_value());
  const auto drv = reduced.driver_of(*root);
  ASSERT_TRUE(drv.has_value());
  EXPECT_EQ(reduced.gate(*drv).type, GateType::kNand);
  EXPECT_EQ(reduced.gate(*drv).inputs.size(), 2u);
}

TEST(Reduce, ReducedNetlistValidates) {
  Fixture f;
  const Seed seeds[] = {{f.ctrl, false}};
  const auto prop = propagate(f.nl, seeds);
  const Netlist reduced = materialize_reduction(f.nl, prop.map);
  const auto report = netlist::validate(reduced);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Reduce, SingleLiveInputBecomesBufferOrInverter) {
  Builder b;
  const NetId a = b.pi("a"), en = b.pi("en");
  const NetId y_and = b.gate(GateType::kAnd, "y_and", {a, en});
  const NetId y_nand = b.gate(GateType::kNand, "y_nand", {a, en});
  b.nl.mark_primary_output(y_and);
  b.nl.mark_primary_output(y_nand);
  // en = 1 is non-controlling for both.
  const Seed seeds[] = {{en, true}};
  const auto prop = propagate(b.nl, seeds);
  const Netlist reduced = materialize_reduction(b.nl, prop.map);
  const auto and_drv = reduced.driver_of(*reduced.find_net("y_and"));
  EXPECT_EQ(reduced.gate(*and_drv).type, GateType::kBuf);
  const auto nand_drv = reduced.driver_of(*reduced.find_net("y_nand"));
  EXPECT_EQ(reduced.gate(*nand_drv).type, GateType::kNot);
}

TEST(Reduce, XorParityFlipsType) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c"), k = b.pi("k");
  const NetId y = b.gate(GateType::kXor, "y", {a, c, k});
  b.nl.mark_primary_output(y);
  const Seed seeds[] = {{k, true}};
  const auto prop = propagate(b.nl, seeds);
  const Netlist reduced = materialize_reduction(b.nl, prop.map);
  const auto drv = reduced.driver_of(*reduced.find_net("y"));
  EXPECT_EQ(reduced.gate(*drv).type, GateType::kXnor);
}

TEST(Reduce, FloatingLogicIsSwept) {
  // Give ctrl a driver cone that dies with it.
  Builder b;
  const NetId p1 = b.pi("p1"), p2 = b.pi("p2"), x = b.pi("x");
  const NetId t = b.gate(GateType::kNand, "t", {p1, p2});
  const NetId ctrl = b.gate(GateType::kNor, "ctrl", {t, p1});
  const NetId e = b.gate(GateType::kNand, "e", {ctrl, x});
  const NetId root = b.gate(GateType::kAnd, "root", {e, x});
  b.nl.mark_primary_output(root);

  const Seed seeds[] = {{ctrl, false}};
  const auto prop = propagate(b.nl, seeds);
  const Netlist swept = materialize_reduction(b.nl, prop.map);
  EXPECT_FALSE(swept.find_net("t").has_value());  // floated and swept
}

TEST(Reduce, FlopWithConstantDGetsConstDriver) {
  Builder b;
  const NetId en = b.pi("en"), x = b.pi("x");
  const NetId d = b.gate(GateType::kAnd, "d", {en, x});
  const NetId q = b.nl.add_net("q_reg");
  b.nl.add_gate(GateType::kDff, q, {d});
  const NetId y = b.gate(GateType::kNot, "y", {q});
  b.nl.mark_primary_output(y);
  const Seed seeds[] = {{en, false}};  // d becomes constant 0
  const auto prop = propagate(b.nl, seeds);
  const Netlist reduced = materialize_reduction(b.nl, prop.map);
  const auto report = netlist::validate(reduced);
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto q_net = reduced.find_net("q_reg");
  ASSERT_TRUE(q_net.has_value());
  const auto flop = reduced.driver_of(*q_net);
  ASSERT_TRUE(flop.has_value());
  const NetId new_d = reduced.gate(*flop).inputs[0];
  const auto const_drv = reduced.driver_of(new_d);
  ASSERT_TRUE(const_drv.has_value());
  EXPECT_EQ(reduced.gate(*const_drv).type, GateType::kConst0);
}

TEST(Reduce, PreexistingConstantGatesSurvive) {
  // Regression (found by fuzzing): zero-input constant gates must not trip
  // the closure assertion when untouched by the assignment.
  Builder b;
  const NetId one = b.gate(GateType::kConst1, "one", {});
  const NetId x = b.pi("x"), en = b.pi("en");
  const NetId y = b.gate(GateType::kXor, "y", {one, x});
  const NetId z = b.gate(GateType::kAnd, "z", {y, en});
  b.nl.mark_primary_output(z);
  const Seed seeds[] = {{en, true}};  // unrelated to the constant
  const auto prop = propagate(b.nl, seeds);
  const Netlist reduced = materialize_reduction(b.nl, prop.map);
  EXPECT_TRUE(netlist::validate(reduced).ok());
  const auto kept = reduced.find_net("one");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(reduced.gate(*reduced.driver_of(*kept)).type, GateType::kConst1);
}

TEST(Reduce, EmptyAssignmentIsIdentityModuloDeadSweep) {
  Fixture f;
  const Netlist reduced = materialize_reduction(f.nl, AssignmentMap{});
  EXPECT_EQ(reduced.gate_count(), f.nl.gate_count());
  EXPECT_EQ(reduced.net_count(), f.nl.net_count());
}

// For every net surviving the reduction of `nl` under `map`, expects the
// virtual-reduction key at each depth to equal the materialized netlist's
// plain key.  Returns the number of surviving nets compared.
std::size_t expect_keys_agree(const Netlist& nl, const AssignmentMap& map,
                              const Options& options,
                              std::initializer_list<std::size_t> depths,
                              const std::string& label) {
  const Netlist reduced = materialize_reduction(nl, map);
  const ConeHasher virtual_hasher(nl, options);
  const ConeHasher reduced_hasher(reduced, options);
  std::size_t compared = 0;
  for (std::size_t i = 0; i < reduced.net_count(); ++i) {
    const NetId red_id = reduced.net_id_at(i);
    const auto orig = nl.find_net(reduced.net(red_id).name);
    if (!orig) continue;  // fresh constant feeders
    ++compared;
    for (std::size_t depth : depths)
      EXPECT_EQ(virtual_hasher.subtree_key(*orig, depth, &map),
                reduced_hasher.subtree_key(red_id, depth))
          << label << ": key mismatch on " << reduced.net(red_id).name
          << " at depth " << depth;
  }
  return compared;
}

// The keystone property: for every net surviving the reduction, the
// materialized netlist's structure matches the virtual-reduction hash keys.
// Checked on the fixture, then on seeded random designs far from the
// family's shapes under every feasible single-net assignment.
TEST(Reduce, VirtualAndMaterializedKeysAgree) {
  Fixture f;
  const Seed seeds[] = {{f.ctrl, false}};
  const auto prop = propagate(f.nl, seeds);
  EXPECT_GT(expect_keys_agree(f.nl, prop.map, f.options, {3}, "fixture"), 0u);

  const Options options;
  std::size_t feasible = 0;
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    netlist::RandomNetlistSpec spec;
    spec.primary_inputs = 3 + seed % 6;
    spec.combinational_gates = 16 + seed;
    spec.flops = seed % 5;
    spec.max_fanin = 2 + seed % 3;
    spec.include_constants = seed % 3 == 0;
    spec.seed = seed;
    const Netlist nl = netlist::random_netlist(spec);
    for (std::size_t n = 0; n < nl.net_count(); ++n) {
      for (const bool value : {false, true}) {
        const Seed assignment[] = {{nl.net_id_at(n), value}};
        const auto closure = propagate(nl, assignment);
        if (!closure.feasible) continue;
        ++feasible;
        const std::string label = "seed " + std::to_string(seed) + ", " +
                                  nl.net(nl.net_id_at(n)).name + "=" +
                                  (value ? "1" : "0");
        compared +=
            expect_keys_agree(nl, closure.map, options, {1, 3}, label);
      }
    }
  }
  // Guard against a vacuous pass.
  EXPECT_GT(feasible, 1000u);
  EXPECT_GT(compared, 10000u);
}

// And behaviourally: reduced == original whenever the assumption holds.
TEST(Reduce, BehaviourPreservedUnderAssumption) {
  Builder b;
  const NetId p1 = b.pi("p1"), p2 = b.pi("p2");
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId ctrl = b.gate(GateType::kNor, "ctrl", {p1, p2});
  const NetId e = b.gate(GateType::kNand, "e", {ctrl, x});
  const NetId s = b.gate(GateType::kXor, "s", {x, y});
  const NetId root = b.gate(GateType::kNand, "root", {s, e});
  b.nl.mark_primary_output(root);

  const Seed seeds[] = {{ctrl, false}};
  const auto prop = propagate(b.nl, seeds);
  const Netlist reduced = materialize_reduction(b.nl, prop.map);
  const auto check =
      testing::check_reduction_equivalence(b.nl, reduced, seeds, 500, 99);
  EXPECT_GT(check.vectors_applicable, 0u);
  EXPECT_TRUE(check.ok()) << check.mismatches << " mismatches";
}

}  // namespace
}  // namespace netrev::wordrec
