// Bit-exactness of the 64-way packed simulation path.
//
// Two contracts under test.  First, the PackedSimulator itself: each of its
// 64 lanes must behave exactly like one scalar Simulator across eval() and
// step().  Second, the sampling layer: sample_random_vectors (packed) must
// return byte-identical samples to the scalar oracle in
// tests/support/scalar_sampler.h for every seed, every vector count —
// especially counts not divisible by 64 or by kRandomSimBlock — and every
// job count.
#include "sim/packed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"
#include "netlist/random_netlist.h"
#include "sim/sample.h"
#include "support/scalar_sampler.h"
#include "support/simulator.h"

namespace netrev::sim {
namespace {

using netlist::CompactView;
using netlist::NetId;
using netlist::Netlist;
using testing::sample_random_vectors_scalar;
using testing::Simulator;

// All nets of a design, the widest possible probe set.
std::vector<NetId> all_nets(const Netlist& nl) {
  std::vector<NetId> probes;
  for (std::size_t i = 0; i < nl.net_count(); ++i)
    probes.push_back(nl.net_id_at(i));
  return probes;
}

// Drives one scalar Simulator per lane and the packed engine with identical
// stimulus, then checks every net's word against the 64 scalar runs.
void expect_lanes_match_scalar(const Netlist& nl, std::uint64_t seed) {
  const CompactView view = CompactView::build(nl);
  ASSERT_TRUE(view.acyclic());

  // Random per-lane stimulus.
  Rng rng(seed);
  std::vector<std::vector<bool>> lane_inputs(64);
  std::vector<std::vector<bool>> lane_states(64);
  const auto inputs = view.primary_inputs();
  const auto flops = view.flop_gates();
  for (std::size_t lane = 0; lane < 64; ++lane) {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      lane_inputs[lane].push_back(rng.next_bool());
    for (std::size_t i = 0; i < flops.size(); ++i)
      lane_states[lane].push_back(rng.next_bool());
  }

  PackedSimulator packed(view);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 64; ++lane)
      if (lane_inputs[lane][i]) word |= std::uint64_t{1} << lane;
    packed.set_input_word(inputs[i], word);
  }
  for (std::size_t i = 0; i < flops.size(); ++i) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 64; ++lane)
      if (lane_states[lane][i]) word |= std::uint64_t{1} << lane;
    packed.set_state_word(view.gate_output(flops[i]), word);
  }
  packed.eval();

  std::vector<std::unique_ptr<Simulator>> scalars;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    auto simulator = std::make_unique<Simulator>(nl);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      simulator->set_input(NetId(inputs[i]), lane_inputs[lane][i]);
    for (std::size_t i = 0; i < flops.size(); ++i)
      simulator->set_state(NetId(view.gate_output(flops[i])),
                           lane_states[lane][i]);
    simulator->eval();
    scalars.push_back(std::move(simulator));
  }

  const auto expect_all_nets_equal = [&](const char* when) {
    for (std::uint32_t n = 0; n < view.net_count(); ++n) {
      const std::uint64_t word = packed.value_word(n);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        ASSERT_EQ(((word >> lane) & 1) != 0,
                  scalars[lane]->value(nl.net_id_at(n)))
            << when << ": net " << nl.net(nl.net_id_at(n)).name << " lane "
            << lane;
      }
    }
  };
  expect_all_nets_equal("after eval");

  // Three clock edges: step() must track the scalar state machine on every
  // lane (two-phase sample/commit, no cross-flop ordering hazards).
  for (int cycle = 0; cycle < 3; ++cycle) {
    packed.step();
    for (auto& simulator : scalars) simulator->step();
    expect_all_nets_equal("after step");
  }
}

TEST(PackedSimulator, LanesMatchScalarOnFamilyBenchmarks) {
  for (const char* name : {"b03s", "b08s", "b13s"}) {
    SCOPED_TRACE(name);
    expect_lanes_match_scalar(itc::build_benchmark(name).netlist, 0xFACE);
  }
}

TEST(PackedSimulator, LanesMatchScalarOnRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    netlist::RandomNetlistSpec spec;
    spec.seed = seed;
    spec.combinational_gates = 150;
    spec.flops = 12;
    spec.include_constants = seed % 2 == 0;
    expect_lanes_match_scalar(netlist::random_netlist(spec), seed * 31);
  }
}

TEST(PackedSampling, MatchesScalarForAwkwardVectorCounts) {
  // Counts straddling every boundary: below one RNG block, non-multiples of
  // kRandomSimBlock, non-multiples of 64, and exact word multiples.
  const Netlist nl = itc::build_benchmark("b08s").netlist;
  const CompactView view = CompactView::build(nl);
  const auto probes = all_nets(nl);
  for (std::size_t count :
       {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{70},
        std::size_t{127}, std::size_t{128}, std::size_t{200}}) {
    SCOPED_TRACE(count);
    EXPECT_EQ(sample_random_vectors(view, probes, count, 0x5EED),
              sample_random_vectors_scalar(nl, probes, count, 0x5EED));
  }
}

TEST(PackedSampling, MatchesScalarAcrossSeeds) {
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  const CompactView view = CompactView::build(nl);
  const auto probes = all_nets(nl);
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                             std::uint64_t{0x5EED}, std::uint64_t{~0ull}}) {
    SCOPED_TRACE(seed);
    EXPECT_EQ(sample_random_vectors(view, probes, 96, seed),
              sample_random_vectors_scalar(nl, probes, 96, seed));
  }
}

TEST(PackedSampling, ByteIdenticalAtAnyJobCount) {
  const Netlist nl = itc::build_benchmark("b13s").netlist;
  const CompactView view = CompactView::build(nl);
  const auto probes = all_nets(nl);
  const std::size_t restore = ThreadPool::global_jobs();
  const auto reference = sample_random_vectors_scalar(nl, probes, 257, 0xF00D);
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                           std::size_t{8}}) {
    SCOPED_TRACE(jobs);
    ThreadPool::set_global_jobs(jobs);
    EXPECT_EQ(sample_random_vectors(view, probes, 257, 0xF00D), reference);
  }
  ThreadPool::set_global_jobs(restore);
}

TEST(PackedSampling, ZeroVectorsYieldEmptySamples) {
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  const auto probes = all_nets(nl);
  EXPECT_TRUE(
      sample_random_vectors(CompactView::build(nl), probes, 0, 1).empty());
  EXPECT_TRUE(sample_random_vectors_scalar(nl, probes, 0, 1).empty());
}

TEST(PackedSampling, CyclicViewIsAnInputError) {
  // A combinational cycle has no levelized schedule; the sampler must throw
  // a runtime error that says so, not crash or violate a contract.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(netlist::GateType::kAnd, x, {a, y});
  nl.add_gate(netlist::GateType::kOr, y, {x, a});
  nl.mark_primary_output(y);
  const std::vector<NetId> probes = {y};
  const CompactView view = CompactView::build(nl);
  EXPECT_THROW(sample_random_vectors(view, probes, 8, 1), std::runtime_error);
  try {
    (void)sample_random_vectors(view, probes, 8, 1);
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("combinational cycle"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace netrev::sim
