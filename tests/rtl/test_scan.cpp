#include "rtl/scan.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "itc/family.h"
#include "netlist/validate.h"
#include "rtl/lower_ops.h"
#include "support/simulator.h"

namespace netrev::rtl {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

// A 4-bit register R <= R ^ DIN with R driving the outputs: the next-state
// XORs on consecutive lines, then the output buffers, then the flops.
Netlist small_design() {
  Netlist nl("scan_demo");
  NetNamer namer(nl);
  constexpr std::size_t kWidth = 4;
  std::vector<NetId> din, q, d;
  for (std::size_t i = 0; i < kWidth; ++i) {
    din.push_back(namer.named("DIN_" + std::to_string(i) + "_"));
    nl.mark_primary_input(din.back());
  }
  for (std::size_t i = 0; i < kWidth; ++i)
    q.push_back(namer.named(flop_output_name("R", i, kWidth)));
  for (std::size_t i = 0; i < kWidth; ++i)
    d.push_back(make_xor(namer, q[i], din[i]));
  for (std::size_t i = 0; i < kWidth; ++i) {
    const NetId out = namer.named("OUT_" + std::to_string(i) + "_");
    nl.add_gate(GateType::kBuf, out, {q[i]});
    nl.mark_primary_output(out);
  }
  for (std::size_t i = 0; i < kWidth; ++i)
    nl.add_gate(GateType::kDff, q[i], {d[i]});
  return nl;
}

TEST(Scan, InsertsOneMuxPerFlop) {
  const Netlist nl = small_design();
  const auto scanned = insert_scan_chain(nl);
  EXPECT_EQ(scanned.muxes_inserted, nl.flop_count());
  EXPECT_EQ(scanned.netlist.flop_count(), nl.flop_count());
  EXPECT_TRUE(scanned.scan_enable.is_valid());
  EXPECT_EQ(scanned.netlist.net(scanned.scan_enable).name, "SCAN_EN");
}

TEST(Scan, ResultValidates) {
  const auto scanned = insert_scan_chain(small_design());
  const auto report = netlist::validate(scanned.netlist);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Scan, FunctionalModeMatchesOriginal) {
  const Netlist original = small_design();
  const auto scanned = insert_scan_chain(original);

  testing::Simulator sim_orig(original);
  testing::Simulator sim_scan(scanned.netlist);
  sim_scan.set_input(scanned.scan_enable, false);
  sim_scan.set_input(scanned.scan_in, false);

  Rng rng(42);
  // Mirror states and inputs, run cycles, compare every flop.
  std::vector<NetId> q_orig, q_scan;
  for (std::size_t i = 0; i < original.net_count(); ++i) {
    const NetId id = original.net_id_at(i);
    if (!original.is_flop_output(id)) continue;
    q_orig.push_back(id);
    q_scan.push_back(*scanned.netlist.find_net(original.net(id).name));
  }
  for (NetId pi_net : original.primary_inputs()) {
    const bool v = rng.next_bool();
    sim_orig.set_input(pi_net, v);
    sim_scan.set_input(*scanned.netlist.find_net(original.net(pi_net).name), v);
  }
  for (std::size_t k = 0; k < q_orig.size(); ++k) {
    const bool v = rng.next_bool();
    sim_orig.set_state(q_orig[k], v);
    sim_scan.set_state(q_scan[k], v);
  }
  for (int cycle = 0; cycle < 6; ++cycle) {
    sim_orig.eval();
    sim_scan.eval();
    for (std::size_t k = 0; k < q_orig.size(); ++k)
      EXPECT_EQ(sim_orig.value(q_orig[k]), sim_scan.value(q_scan[k]))
          << "cycle " << cycle << " flop " << k;
    sim_orig.step();
    sim_scan.step();
  }
}

TEST(Scan, ShiftModeThreadsTheChain) {
  const auto scanned = insert_scan_chain(small_design());
  testing::Simulator sim(scanned.netlist);
  for (NetId pi_net : scanned.netlist.primary_inputs())
    sim.set_input(pi_net, false);
  sim.set_input(scanned.scan_enable, true);

  // Clear the chain, then shift in a single 1 and watch it emerge after
  // flop_count cycles.
  std::vector<NetId> flops;
  for (std::size_t i = 0; i < scanned.netlist.net_count(); ++i) {
    const NetId id = scanned.netlist.net_id_at(i);
    if (scanned.netlist.is_flop_output(id)) sim.set_state(id, false);
  }
  sim.set_input(scanned.scan_in, true);
  sim.eval();
  sim.step();
  sim.set_input(scanned.scan_in, false);
  const std::size_t chain_length = scanned.netlist.flop_count();
  for (std::size_t k = 1; k < chain_length; ++k) {
    sim.eval();
    EXPECT_FALSE(sim.value(scanned.scan_out));
    sim.step();
  }
  sim.eval();
  EXPECT_TRUE(sim.value(scanned.scan_out));
}

TEST(Scan, RejectsFloplessDesigns) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  nl.mark_primary_output(a);
  EXPECT_THROW(insert_scan_chain(nl), std::invalid_argument);
}

TEST(Scan, RejectsReservedNames) {
  Netlist nl = small_design();
  nl.add_net("SCAN_EN");
  EXPECT_THROW(insert_scan_chain(nl), std::invalid_argument);
}

TEST(Scan, WorksOnFamilyBenchmark) {
  const auto bench = itc::build_benchmark("b03s");
  const auto scanned = insert_scan_chain(bench.netlist);
  EXPECT_TRUE(netlist::validate(scanned.netlist).ok());
  EXPECT_EQ(scanned.muxes_inserted, 30u);
}

}  // namespace
}  // namespace netrev::rtl
