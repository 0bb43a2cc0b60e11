#include "support/simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/thread_pool.h"
#include "sim/sample.h"

namespace netrev::sim {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using testing::Simulator;

TEST(Simulator, EvaluatesCombinationalLogic) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kNand, y, {a, b});
  nl.mark_primary_output(y);

  Simulator sim(nl);
  for (int av = 0; av < 2; ++av)
    for (int bv = 0; bv < 2; ++bv) {
      sim.set_input(a, av != 0);
      sim.set_input(b, bv != 0);
      sim.eval();
      EXPECT_EQ(sim.value(y), !(av && bv));
    }
}

TEST(Simulator, ConstantsDrive) {
  Netlist nl;
  const NetId one = nl.add_net("one");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kConst1, one, {});
  nl.add_gate(GateType::kNot, y, {one});
  nl.mark_primary_output(y);
  Simulator sim(nl);
  sim.eval();
  EXPECT_TRUE(sim.value(one));
  EXPECT_FALSE(sim.value(y));
}

TEST(Simulator, StepCommitsDIntoQ) {
  // toggle flop: q = DFF(NOT(q))
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  nl.add_gate(GateType::kDff, q, {d});
  nl.add_gate(GateType::kNot, d, {q});
  nl.mark_primary_output(q);

  Simulator sim(nl);
  sim.set_state(q, false);
  sim.eval();
  EXPECT_TRUE(sim.value(d));
  sim.step();
  EXPECT_TRUE(sim.value(q));
  sim.step();
  EXPECT_FALSE(sim.value(q));
}

TEST(Simulator, FlopToFlopUsesPreEdgeState) {
  // shift register: q2 = DFF(q1), q1 = DFF(in)
  Netlist nl;
  const NetId in = nl.add_net("in");
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  nl.mark_primary_input(in);
  nl.add_gate(GateType::kDff, q1, {in});
  nl.add_gate(GateType::kDff, q2, {q1});
  nl.mark_primary_output(q2);

  Simulator sim(nl);
  sim.set_state(q1, false);
  sim.set_state(q2, false);
  sim.set_input(in, true);
  sim.eval();
  sim.step();
  EXPECT_TRUE(sim.value(q1));
  EXPECT_FALSE(sim.value(q2));  // old q1, not the new one
  sim.step();
  EXPECT_TRUE(sim.value(q2));
}

TEST(Simulator, SetInputRejectsNonInputs) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kNot, y, {a});
  nl.mark_primary_output(y);
  Simulator sim(nl);
  EXPECT_THROW(sim.set_input(y, true), ContractViolation);
}

TEST(Simulator, SetStateRejectsNonFlops) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  nl.mark_primary_output(a);
  Simulator sim(nl);
  EXPECT_THROW(sim.set_state(a, true), ContractViolation);
}

TEST(Simulator, RandomizeIsDeterministicPerSeed) {
  Netlist nl;
  std::vector<NetId> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(nl.add_net("i" + std::to_string(i)));
    nl.mark_primary_input(inputs.back());
    nl.mark_primary_output(inputs.back());
  }
  Simulator sim(nl);
  Rng r1(5), r2(5);
  sim.randomize_inputs(r1);
  std::vector<bool> first;
  for (NetId in : inputs) first.push_back(sim.value(in));
  sim.randomize_inputs(r2);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(sim.value(inputs[i]), first[i]);
}

TEST(Simulator, WideGateEvaluation) {
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(nl.add_net("i" + std::to_string(i)));
    nl.mark_primary_input(ins.back());
  }
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kXor, y, ins);
  nl.mark_primary_output(y);
  Simulator sim(nl);
  for (int mask = 0; mask < 32; ++mask) {
    int ones = 0;
    for (int i = 0; i < 5; ++i) {
      const bool v = (mask >> i) & 1;
      sim.set_input(ins[static_cast<std::size_t>(i)], v);
      ones += v;
    }
    sim.eval();
    EXPECT_EQ(sim.value(y), ones % 2 == 1) << "mask " << mask;
  }
}

// Batched random sampling draws each kRandomSimBlock-vector block from its
// own Rng::stream, so the sample matrix is identical at any job count.
TEST(SampleRandomVectors, IdenticalAcrossJobCounts) {
  Netlist nl;
  std::vector<NetId> probes;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  for (int i = 0; i < 6; ++i) {
    const NetId y = nl.add_net("y" + std::to_string(i));
    nl.add_gate(i % 2 == 0 ? GateType::kNand : GateType::kNor, y, {a, b});
    probes.push_back(y);
  }

  const netlist::CompactView view = netlist::CompactView::build(nl);
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(1);
  // 2.5 blocks' worth of vectors: exercises the partial final block.
  const auto serial =
      sample_random_vectors(view, probes, 2 * kRandomSimBlock + 16, 0x5EED);
  EXPECT_EQ(serial.size(), (2 * kRandomSimBlock + 16) * probes.size());
  ThreadPool::set_global_jobs(8);
  const auto parallel =
      sample_random_vectors(view, probes, 2 * kRandomSimBlock + 16, 0x5EED);
  ThreadPool::set_global_jobs(restore);
  EXPECT_EQ(serial, parallel);
}

TEST(SampleRandomVectors, SeedChangesSamples) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kNot, y, {a});
  const std::vector<NetId> probes{a, y};

  const netlist::CompactView view = netlist::CompactView::build(nl);
  const auto one = sample_random_vectors(view, probes, 64, 1);
  const auto two = sample_random_vectors(view, probes, 64, 2);
  EXPECT_NE(one, two);
}

}  // namespace
}  // namespace netrev::sim
