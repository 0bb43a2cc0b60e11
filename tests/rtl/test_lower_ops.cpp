#include "rtl/lower_ops.h"

#include <gtest/gtest.h>

#include "netlist/validate.h"
#include "support/simulator.h"

namespace netrev::rtl {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Fixture {
  Netlist nl{"lower"};
  NetNamer namer{nl, 100};
  NetId a, b, s;

  Fixture() {
    a = nl.add_net("a");
    b = nl.add_net("b");
    s = nl.add_net("s");
    nl.mark_primary_input(a);
    nl.mark_primary_input(b);
    nl.mark_primary_input(s);
  }
};

TEST(NetNamer, FreshNamesAreSequentialUNames) {
  Fixture f;
  const NetId u100 = f.namer.fresh();
  const NetId u101 = f.namer.fresh();
  EXPECT_EQ(f.nl.net(u100).name, "U100");
  EXPECT_EQ(f.nl.net(u101).name, "U101");
}

TEST(NetNamer, SkipsTakenNames) {
  Fixture f;
  f.nl.add_net("U100");
  const NetId fresh = f.namer.fresh();
  EXPECT_EQ(f.nl.net(fresh).name, "U101");
}

TEST(NetNamer, BitNames) {
  EXPECT_EQ(flop_output_name("R", 0, 1), "R_reg");
  EXPECT_EQ(flop_output_name("R", 3, 8), "R_reg_3_");
}

TEST(LowerOps, ImmediateBuildersEmitOneGateEach) {
  Fixture f;
  const NetId y = make_nand(f.namer, f.a, f.b);
  EXPECT_EQ(f.nl.gate_count(), 1u);
  const auto drv = f.nl.driver_of(y);
  ASSERT_TRUE(drv.has_value());
  EXPECT_EQ(f.nl.gate(*drv).type, GateType::kNand);
}

TEST(LowerOps, EmitOntoDrivesExistingNet) {
  Fixture f;
  const NetId target = f.nl.add_net("target");
  GateSpec spec{GateType::kOr, {f.a, f.b}};
  emit_onto(f.namer, target, spec);
  const auto drv = f.nl.driver_of(target);
  ASSERT_TRUE(drv.has_value());
  EXPECT_EQ(f.nl.gate(*drv).type, GateType::kOr);
}

TEST(LowerOps, Mux2SpecImplementsMux) {
  Fixture f;
  const NetId not_s = make_not(f.namer, f.s);
  const GateSpec root = mux2_spec(f.namer, f.s, f.a, f.b, not_s);
  const NetId y = emit(f.namer, root);
  f.nl.mark_primary_output(y);
  ASSERT_TRUE(netlist::validate(f.nl).ok());

  testing::Simulator sim(f.nl);
  for (int sv = 0; sv < 2; ++sv)
    for (int av = 0; av < 2; ++av)
      for (int bv = 0; bv < 2; ++bv) {
        sim.set_input(f.s, sv != 0);
        sim.set_input(f.a, av != 0);
        sim.set_input(f.b, bv != 0);
        sim.eval();
        EXPECT_EQ(sim.value(y), sv ? bv != 0 : av != 0)
            << "s=" << sv << " a=" << av << " b=" << bv;
      }
}

}  // namespace
}  // namespace netrev::rtl
