#include "wordrec/control.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/dataflow.h"
#include "netlist/compact.h"

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

bool contains(const std::vector<NetId>& nets, NetId id) {
  return std::find(nets.begin(), nets.end(), id) != nets.end();
}

// Three dissimilar subtrees sharing the control pair (ctrl dominated net t).
struct SharedControlFixture : Builder {
  NetId ctrl, t, e0, e1, e2;

  SharedControlFixture() {
    const NetId p1 = pi("p1"), p2 = pi("p2"), p3 = pi("p3");
    const NetId z0 = pi("z0"), z1 = pi("z1"), z2 = pi("z2");
    t = gate(GateType::kNand, "t", {p1, p2});
    ctrl = gate(GateType::kNor, "ctrl", {t, p3});
    e0 = gate(GateType::kNand, "e0", {ctrl, z0});
    const NetId g1 = gate(GateType::kNot, "g1", {z1});
    e1 = gate(GateType::kNand, "e1", {ctrl, g1});
    const NetId g2 = gate(GateType::kAnd, "g2", {z1, z2});
    e2 = gate(GateType::kNand, "e2", {ctrl, g2});
  }
};

TEST(ControlSignals, FindsSharedSignalAcrossSubtrees) {
  SharedControlFixture f;
  const NetId roots[] = {f.e0, f.e1, f.e2};
  const auto signals = find_relevant_control_signals(f.nl, roots, f.options);
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0], f.ctrl);
}

TEST(ControlSignals, DominatedNetsRemoved) {
  SharedControlFixture f;
  const NetId roots[] = {f.e0, f.e1, f.e2};
  const auto signals = find_relevant_control_signals(f.nl, roots, f.options);
  EXPECT_FALSE(contains(signals, f.t));  // t is in ctrl's fanin cone
}

TEST(ControlSignals, SubtreeRootsAreNeverCandidates) {
  SharedControlFixture f;
  // Degenerate single-subtree case: the common set is e0's whole cone; the
  // root e0 must be excluded, leaving ctrl and the garnish source.
  const NetId roots[] = {f.e0};
  const auto signals = find_relevant_control_signals(f.nl, roots, f.options);
  EXPECT_FALSE(contains(signals, f.e0));
  EXPECT_TRUE(contains(signals, f.ctrl));
}

TEST(ControlSignals, EmptyWhenNothingCommon) {
  Builder b;
  const NetId a = b.pi("a"), c = b.pi("c"), d = b.pi("d"), e = b.pi("e");
  const NetId r1 = b.gate(GateType::kNand, "r1", {a, c});
  const NetId r2 = b.gate(GateType::kNand, "r2", {d, e});
  const NetId roots[] = {r1, r2};
  EXPECT_TRUE(find_relevant_control_signals(b.nl, roots, b.options).empty());
}

TEST(ControlSignals, EmptyForNoRoots) {
  Builder b;
  EXPECT_TRUE(find_relevant_control_signals(
                  b.nl, std::span<const NetId>{}, b.options)
                  .empty());
}

TEST(ControlSignals, ConstantsAreExcluded) {
  Builder b;
  const NetId one = b.gate(GateType::kConst1, "one", {});
  const NetId z0 = b.pi("z0"), z1 = b.pi("z1");
  const NetId r1 = b.gate(GateType::kNand, "r1", {one, z0});
  const NetId r2 = b.gate(GateType::kNand, "r2", {one, z1});
  const NetId roots[] = {r1, r2};
  const auto signals = find_relevant_control_signals(b.nl, roots, b.options);
  EXPECT_FALSE(contains(signals, one));
}

TEST(ControlSignals, DepthBoundLimitsCommonality) {
  // The shared net sits deeper than the subtree depth; with cone_depth = 2
  // (subtree depth 1) it is invisible.
  SharedControlFixture f;
  Options shallow = f.options;
  shallow.cone_depth = 2;
  const NetId roots[] = {f.e1, f.e2};  // ctrl at depth 1 is still visible
  auto signals = find_relevant_control_signals(f.nl, roots, shallow);
  EXPECT_TRUE(contains(signals, f.ctrl));
  // t is at depth 2 from the roots; it cannot even be listed, and ctrl is
  // not dominated within the restricted view either.
  EXPECT_FALSE(contains(signals, f.t));
}

TEST(ControlSignals, PairOfSignalsBothKept) {
  Builder b;
  const NetId ca = b.pi("ca"), cb = b.pi("cb");
  const NetId z0 = b.pi("z0"), z1 = b.pi("z1");
  const NetId ea0 = b.gate(GateType::kNand, "ea0", {ca, z0});
  const NetId eb0 = b.gate(GateType::kNand, "eb0", {cb, z0});
  const NetId r0 = b.gate(GateType::kAnd, "r0", {ea0, eb0});
  const NetId ea1 = b.gate(GateType::kNand, "ea1", {ca, z1});
  const NetId eb1 = b.gate(GateType::kNand, "eb1", {cb, z1});
  const NetId r1 = b.gate(GateType::kAnd, "r1", {ea1, eb1});
  const NetId roots[] = {r0, r1};
  const auto signals = find_relevant_control_signals(b.nl, roots, b.options);
  EXPECT_TRUE(contains(signals, ca));
  EXPECT_TRUE(contains(signals, cb));
}

TEST(ControlSignals, CapRespected) {
  Builder b;
  // Many independent common PIs -> cap kicks in.
  std::vector<NetId> shared;
  for (int i = 0; i < 12; ++i) shared.push_back(b.pi("s" + std::to_string(i)));
  std::vector<NetId> r0_ins = shared;
  std::vector<NetId> r1_ins = shared;
  const NetId r0 = b.nl.add_net("r0");
  b.nl.add_gate(GateType::kNand, r0, r0_ins);
  const NetId r1 = b.nl.add_net("r1");
  b.nl.add_gate(GateType::kNand, r1, r1_ins);
  Options capped = b.options;
  capped.max_control_signals_per_subgroup = 4;
  const NetId roots[] = {r0, r1};
  const auto signals = find_relevant_control_signals(b.nl, roots, capped);
  EXPECT_EQ(signals.size(), 4u);
}

TEST(ControlSignals, SubgroupOverloadUnionsPerBitRoots) {
  SharedControlFixture f;
  Subgroup sg;
  sg.bits = {f.pi("b0"), f.pi("b1"), f.pi("b2")};
  sg.dissimilar = {{f.e0}, {f.e1, f.e0}, {f.e2}};  // duplicates tolerated
  const auto signals = find_relevant_control_signals(f.nl, sg, f.options);
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0], f.ctrl);
}

// Two dissimilar subtrees whose common cone contains a live control `ctrl`,
// a *derived* constant k = AND(a, 0) (the ternary engine proves it 0), and
// k's fanin `a`.  Default candidates: {ctrl, k} — a is dominated by k.
struct DerivedConstantFixture : Builder {
  NetId a, k, ctrl, r0, r1;

  DerivedConstantFixture() {
    a = pi("a");
    ctrl = pi("ctrl");
    const NetId c0 = gate(GateType::kConst0, "c0", {});
    k = gate(GateType::kAnd, "k", {a, c0});
    r0 = gate(GateType::kNand, "r0", {ctrl, k, pi("z0")});
    r1 = gate(GateType::kNand, "r1", {ctrl, k, pi("z1")});
  }

  std::vector<NetId> signals(const Options& opts) const {
    const NetId roots[] = {r0, r1};
    return find_relevant_control_signals(nl, roots, opts);
  }
};

TEST(ControlSignals, DataflowPruningRemovesExactlyTheProvenConstants) {
  DerivedConstantFixture f;
  const std::vector<NetId> fallback = f.signals(f.options);
  EXPECT_TRUE(contains(fallback, f.ctrl));
  EXPECT_TRUE(contains(fallback, f.k));

  const auto mask = analysis::run_dataflow(netlist::CompactView::build(f.nl))
                        .constant_mask();
  Options pruning = f.options;
  pruning.use_dataflow = true;
  pruning.constant_nets = &mask;
  const std::vector<NetId> pruned = f.signals(pruning);

  // The knob's contract: pruned == default minus provably-constant nets,
  // nothing more and nothing less.
  std::vector<NetId> expected;
  for (NetId net : fallback)
    if (mask[net.value()] == 0) expected.push_back(net);
  EXPECT_EQ(pruned, expected);
  EXPECT_TRUE(contains(pruned, f.ctrl));
  EXPECT_FALSE(contains(pruned, f.k));
}

TEST(ControlSignals, PrunedConstantStillDominatesItsCone) {
  // If pruning dropped k before the dominance filter, k's fanin `a` would
  // surface as a brand-new candidate — which would violate the "only
  // removes" guarantee.  k must keep its dominator role.
  DerivedConstantFixture f;
  const auto mask = analysis::run_dataflow(netlist::CompactView::build(f.nl))
                        .constant_mask();
  Options pruning = f.options;
  pruning.use_dataflow = true;
  pruning.constant_nets = &mask;
  const std::vector<NetId> pruned = f.signals(pruning);
  EXPECT_FALSE(contains(pruned, f.a));
}

TEST(ControlSignals, DataflowFlagWithoutMaskIsANoop) {
  DerivedConstantFixture f;
  const std::vector<NetId> fallback = f.signals(f.options);

  Options flag_only = f.options;
  flag_only.use_dataflow = true;  // mask left null
  EXPECT_EQ(f.signals(flag_only), fallback);

  const auto mask = analysis::run_dataflow(netlist::CompactView::build(f.nl))
                        .constant_mask();
  Options mask_only = f.options;
  mask_only.constant_nets = &mask;  // flag left off
  EXPECT_EQ(f.signals(mask_only), fallback);
}

TEST(ControlSignals, AllZeroMaskPrunesNothing) {
  DerivedConstantFixture f;
  const std::vector<std::uint8_t> zeros(f.nl.net_count(), 0);
  Options pruning = f.options;
  pruning.use_dataflow = true;
  pruning.constant_nets = &zeros;
  EXPECT_EQ(f.signals(pruning), f.signals(f.options));
}

TEST(ControlSignals, DeterministicOrder) {
  Builder b;
  const NetId ca = b.pi("ca"), cb = b.pi("cb");
  const NetId z0 = b.pi("z0"), z1 = b.pi("z1");
  const NetId r0 = b.gate(GateType::kNand, "r0", {ca, cb, z0});
  const NetId r1 = b.gate(GateType::kNand, "r1", {ca, cb, z1});
  const NetId roots[] = {r0, r1};
  const auto signals = find_relevant_control_signals(b.nl, roots, b.options);
  ASSERT_EQ(signals.size(), 2u);
  EXPECT_LT(signals[0], signals[1]);  // ascending net id
}

}  // namespace
}  // namespace netrev::wordrec
