#include "rtl/synth.h"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "netlist/validate.h"
#include "rtl/netnamer.h"
#include "support/simulator.h"

namespace netrev::rtl {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

// Drives a synthesized netlist and mirrors it against the RTL interpreter.
class CoSim {
 public:
  CoSim(const Module& module, const SynthesisResult& synth)
      : module_(&module), synth_(&synth), sim_(synth.netlist) {}

  void set_input(const std::string& name, std::uint64_t value) {
    input_values_[name] = value;
    const Port* port = nullptr;
    for (const Port& p : module_->inputs())
      if (p.name == name) port = &p;
    ASSERT_NE(port, nullptr);
    for (std::size_t i = 0; i < port->width; ++i) {
      const auto net =
          synth_->netlist.find_net(bit_name(name, i, port->width));
      ASSERT_TRUE(net.has_value());
      sim_.set_input(*net, (value >> i) & 1);
    }
  }

  void set_register(const std::string& name, std::uint64_t value) {
    reg_values_[name] = value;
    const Register* reg = module_->find_register(name);
    ASSERT_NE(reg, nullptr);
    for (std::size_t i = 0; i < reg->width; ++i) {
      const auto net =
          synth_->netlist.find_net(flop_output_name(name, i, reg->width));
      ASSERT_TRUE(net.has_value());
      sim_.set_state(*net, (value >> i) & 1);
    }
  }

  // Evaluates and checks every register's next state against the
  // interpreter; then steps both models.
  void check_and_step() {
    sim_.eval();
    EvalEnv env;
    env.context = this;
    env.lookup_input = [](const std::string& name, void* ctx) {
      return static_cast<CoSim*>(ctx)->input_values_.at(name);
    };
    env.lookup_reg = [](const std::string& name, void* ctx) {
      return static_cast<CoSim*>(ctx)->reg_values_.at(name);
    };

    std::map<std::string, std::uint64_t> next_values;
    for (const Register& reg : module_->registers()) {
      const std::uint64_t expected = evaluate(*reg.next, env);
      std::uint64_t measured = 0;
      const auto& d_nets = synth_->register_d_nets.at(reg.name);
      for (std::size_t i = 0; i < d_nets.size(); ++i)
        measured |= static_cast<std::uint64_t>(sim_.value(d_nets[i])) << i;
      EXPECT_EQ(measured, expected) << "register " << reg.name;
      next_values[reg.name] = expected;
    }
    sim_.step();
    reg_values_ = std::move(next_values);
  }

 private:
  const Module* module_;
  const SynthesisResult* synth_;
  testing::Simulator sim_;
  std::map<std::string, std::uint64_t> input_values_;
  std::map<std::string, std::uint64_t> reg_values_;
};

Module datapath_module() {
  Module m("dp");
  const auto din = m.add_input("DIN", 8);
  const auto sel = m.add_input("SEL", 1);
  const auto hold = m.add_register("HOLD", 8);
  const auto acc = m.add_register("ACC", 8);
  const auto cnt = m.add_register("CNT", 4);
  const auto shifty = m.add_register("SHIFTY", 4);
  m.set_next("HOLD", mux(sel, hold, din));
  m.set_next("ACC", add(acc, hold));
  m.set_next("CNT", sub(cnt, constant(1, 4)));
  m.set_next("SHIFTY", mux(lt(cnt, constant(9, 4)), shr(shifty, 1),
                           shl(shifty, 2)));
  m.add_output("DOUT", bit_xor(acc, hold));
  m.add_output("ZERO", eq(cnt, constant(0, 4)));
  return m;
}

TEST(Synth, ProducesValidNetlist) {
  const auto synth = synthesize(datapath_module());
  const auto report = netlist::validate(synth.netlist);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Synth, RegisterNamesSurviveOnFlopOutputs) {
  const auto synth = synthesize(datapath_module());
  EXPECT_TRUE(synth.netlist.find_net("HOLD_reg_0_").has_value());
  EXPECT_TRUE(synth.netlist.find_net("ACC_reg_7_").has_value());
  EXPECT_TRUE(synth.netlist.find_net("CNT_reg_3_").has_value());
  EXPECT_TRUE(
      synth.netlist.is_flop_output(*synth.netlist.find_net("HOLD_reg_0_")));
}

TEST(Synth, InternalNetsAreAnonymous) {
  const auto synth = synthesize(datapath_module());
  std::size_t u_named = 0;
  for (std::size_t i = 0; i < synth.netlist.net_count(); ++i) {
    const auto& name = synth.netlist.net(synth.netlist.net_id_at(i)).name;
    if (name.size() > 1 && name[0] == 'U' &&
        std::isdigit(static_cast<unsigned char>(name[1])))
      ++u_named;
  }
  EXPECT_GT(u_named, 10u);
}

TEST(Synth, WordRootGatesLandOnConsecutiveLines) {
  const auto synth = synthesize(datapath_module());
  // The D nets of HOLD must be driven by gates occupying consecutive file
  // positions (this is what §2.2 grouping relies on).
  const auto& d_nets = synth.register_d_nets.at("HOLD");
  std::vector<std::size_t> positions;
  const auto order = synth.netlist.gates_in_file_order();
  for (NetId d : d_nets)
    for (std::size_t pos = 0; pos < order.size(); ++pos)
      if (synth.netlist.gate(order[pos]).output == d) positions.push_back(pos);
  ASSERT_EQ(positions.size(), d_nets.size());
  for (std::size_t i = 1; i < positions.size(); ++i)
    EXPECT_EQ(positions[i], positions[i - 1] + 1);
}

TEST(Synth, SharedSubexpressionsEmitOnce) {
  Module m("share");
  const auto a = m.add_input("A", 8);
  const auto b = m.add_input("B", 8);
  const auto shared = bit_xor(a, b);  // one Expr node reused twice
  m.add_register("R1", 8);
  m.add_register("R2", 8);
  m.set_next("R1", bit_and(shared, a));
  m.set_next("R2", bit_or(shared, b));
  const auto synth = synthesize(m);

  std::size_t xor_count = 0;
  for (std::size_t i = 0; i < synth.netlist.gate_count(); ++i)
    if (synth.netlist.gate(synth.netlist.gate_id_at(i)).type == GateType::kXor)
      ++xor_count;
  EXPECT_EQ(xor_count, 8u);  // shared emitted once, not twice
}

TEST(Synth, RejectsIncompleteModule) {
  Module m("bad");
  m.add_register("r", 4);
  EXPECT_THROW(synthesize(m), std::invalid_argument);
}

// The core property: gate-level behaviour == word-level semantics, across
// random stimulus and several clock cycles.
class SynthCoSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthCoSim, MatchesInterpreterOverRandomRuns) {
  const Module m = datapath_module();
  const auto synth = synthesize(m);
  CoSim cosim(m, synth);
  Rng rng(GetParam());
  cosim.set_register("HOLD", rng.next_u64() & 0xFF);
  cosim.set_register("ACC", rng.next_u64() & 0xFF);
  cosim.set_register("CNT", rng.next_u64() & 0xF);
  cosim.set_register("SHIFTY", rng.next_u64() & 0xF);
  for (int cycle = 0; cycle < 12; ++cycle) {
    cosim.set_input("DIN", rng.next_u64() & 0xFF);
    cosim.set_input("SEL", rng.next_u64() & 1);
    cosim.check_and_step();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthCoSim,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace netrev::rtl
