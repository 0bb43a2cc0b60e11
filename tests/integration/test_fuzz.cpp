// Fuzz-style property tests over random well-formed netlists: parsers,
// simulator, constant propagation, reduction, and identification must hold
// their invariants on arbitrary circuits, not just the structured family.
#include <gtest/gtest.h>

#include <unordered_set>

#include "netlist/compare.h"
#include "netlist/random_netlist.h"
#include "netlist/validate.h"
#include "parser/bench_parser.h"
#include "parser/verilog_parser.h"
#include "parser/verilog_writer.h"
#include "support/equivalence.h"
#include "support/simulator.h"
#include "wordrec/assignment.h"
#include "wordrec/baseline.h"
#include "wordrec/identify.h"
#include "wordrec/reduce.h"

namespace netrev {
namespace {

using netlist::NetId;
using netlist::Netlist;
using netlist::RandomNetlistSpec;

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static Netlist make(std::uint64_t seed) {
    RandomNetlistSpec spec;
    spec.seed = seed;
    spec.primary_inputs = 6 + seed % 5;
    spec.combinational_gates = 60 + (seed * 7) % 90;
    spec.flops = 4 + seed % 6;
    spec.include_constants = seed % 3 == 0;
    return netlist::random_netlist(spec);
  }
};

TEST_P(FuzzTest, AlwaysValidates) {
  const Netlist nl = make(GetParam());
  const auto report = netlist::validate(nl);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.warning_count(), 0u) << report.to_string();
}

TEST_P(FuzzTest, VerilogRoundTrips) {
  const Netlist nl = make(GetParam());
  const Netlist back = parser::parse_verilog(parser::write_verilog(nl));
  const auto diff = netlist::structural_difference(nl, back);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_P(FuzzTest, BenchRoundTrips) {
  const Netlist nl = make(GetParam());
  const Netlist back = parser::parse_bench(parser::write_bench(nl));
  const auto diff = netlist::structural_difference(nl, back);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_P(FuzzTest, PropagationClosureIsSimulationSound) {
  const Netlist nl = make(GetParam());
  Rng rng(GetParam() * 977);
  // Seed two random internal nets with random values.
  std::vector<std::pair<NetId, bool>> seeds;
  for (int k = 0; k < 2; ++k) {
    const std::size_t g = rng.next_below(nl.gate_count());
    const NetId net = nl.gate(nl.gate_id_at(g)).output;
    seeds.emplace_back(net, rng.next_bool());
  }
  const auto prop = wordrec::propagate(nl, seeds);
  if (!prop.feasible) return;  // contradictory seeds: nothing to check
  std::unordered_map<NetId, bool> implied(prop.map.entries().begin(),
                                          prop.map.entries().end());
  const auto check =
      testing::check_implications(nl, seeds, implied, 300, GetParam() * 31 + 7);
  EXPECT_EQ(check.violations, 0u);
}

TEST_P(FuzzTest, ReductionValidatesAndPreservesBehaviour) {
  const Netlist nl = make(GetParam());
  Rng rng(GetParam() * 131);
  // Pick a random single-net assumption that is feasible.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::size_t g = rng.next_below(nl.gate_count());
    const NetId net = nl.gate(nl.gate_id_at(g)).output;
    const std::pair<NetId, bool> seeds[] = {{net, rng.next_bool()}};
    const auto prop = wordrec::propagate(nl, seeds);
    if (!prop.feasible) continue;
    const Netlist reduced = wordrec::materialize_reduction(nl, prop.map);
    const auto report = netlist::validate(reduced);
    ASSERT_TRUE(report.ok()) << report.to_string();
    const auto equivalence = testing::check_reduction_equivalence(
        nl, reduced, seeds, 200, 5 + attempt);
    EXPECT_EQ(equivalence.mismatches, 0u);
    return;
  }
  GTEST_SKIP() << "no feasible single-net assumption found";
}

TEST_P(FuzzTest, IdentificationOutputIsAPartition) {
  const Netlist nl = make(GetParam());
  const auto result = wordrec::identify_words(nl);
  std::unordered_set<NetId> seen;
  std::size_t total = 0;
  for (const auto& word : result.words.words) {
    for (NetId bit : word.bits) {
      EXPECT_TRUE(seen.insert(bit).second);
      ++total;
    }
  }
  EXPECT_EQ(total, nl.gate_count());
}

TEST_P(FuzzTest, IdentificationNeverBeatenByBaselineOnWordCount) {
  const Netlist nl = make(GetParam());
  const auto ours = wordrec::identify_words(nl);
  const auto base = wordrec::identify_words_baseline(nl);
  // Ours refines Base: its multi-bit coverage can only grow.
  std::size_t ours_covered = 0, base_covered = 0;
  for (const auto& word : ours.words.words)
    if (word.width() >= 2) ours_covered += word.width();
  for (const auto& word : base.words)
    if (word.width() >= 2) base_covered += word.width();
  EXPECT_GE(ours_covered, base_covered);
}

TEST_P(FuzzTest, SimulatorIsDeterministic) {
  const Netlist nl = make(GetParam());
  testing::Simulator sim1(nl), sim2(nl);
  Rng r1(99), r2(99);
  sim1.randomize_inputs(r1);
  sim1.randomize_state(r1);
  sim2.randomize_inputs(r2);
  sim2.randomize_state(r2);
  sim1.eval();
  sim2.eval();
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim1.step();
    sim2.step();
  }
  for (std::size_t i = 0; i < nl.net_count(); ++i)
    EXPECT_EQ(sim1.value(nl.net_id_at(i)), sim2.value(nl.net_id_at(i)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace netrev
