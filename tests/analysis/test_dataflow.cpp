// Tests for the ternary dataflow engine (analysis/dataflow.h): lattice and
// transfer functions, constant propagation, cycle tolerance, the steady-state
// flop iteration, stuck-flop detection, cancellation, and determinism across
// thread counts — plus the lint rules built directly on the engine
// (const-net, stuck-ff, redundant-mux).
#include "analysis/dataflow.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/thread_pool.h"
#include "exec/cancel.h"
#include "itc/family.h"

namespace netrev::analysis {
namespace {

using netlist::CompactView;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

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

AnalysisResult run_rule(const Netlist& nl, const std::string& rule) {
  AnalysisOptions options;
  options.enabled_rules = {rule};
  return analyze(nl, options);
}

// --- lattice ---------------------------------------------------------------

TEST(DataflowLattice, JoinBottomIsIdentity) {
  for (const Ternary v : {Ternary::kBottom, Ternary::kZero, Ternary::kOne,
                          Ternary::kX}) {
    EXPECT_EQ(ternary_join(Ternary::kBottom, v), v);
    EXPECT_EQ(ternary_join(v, Ternary::kBottom), v);
  }
}

TEST(DataflowLattice, JoinOfDistinctConstantsIsX) {
  EXPECT_EQ(ternary_join(Ternary::kZero, Ternary::kOne), Ternary::kX);
  EXPECT_EQ(ternary_join(Ternary::kOne, Ternary::kZero), Ternary::kX);
}

TEST(DataflowLattice, JoinXAbsorbsAndJoinIsIdempotent) {
  for (const Ternary v : {Ternary::kBottom, Ternary::kZero, Ternary::kOne,
                          Ternary::kX}) {
    EXPECT_EQ(ternary_join(Ternary::kX, v), Ternary::kX);
    EXPECT_EQ(ternary_join(v, v), v);
  }
}

TEST(DataflowLattice, CodesAreDistinct) {
  EXPECT_EQ(ternary_code(Ternary::kBottom), '_');
  EXPECT_EQ(ternary_code(Ternary::kZero), '0');
  EXPECT_EQ(ternary_code(Ternary::kOne), '1');
  EXPECT_EQ(ternary_code(Ternary::kX), 'X');
}

// --- transfer functions ----------------------------------------------------

TEST(DataflowTransfer, ControllingValuesDominateUnknowns) {
  const Ternary zx[] = {Ternary::kZero, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, zx), Ternary::kZero);
  EXPECT_EQ(eval_gate_ternary(GateType::kNand, zx), Ternary::kOne);
  const Ternary ox[] = {Ternary::kOne, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kOr, ox), Ternary::kOne);
  EXPECT_EQ(eval_gate_ternary(GateType::kNor, ox), Ternary::kZero);
}

TEST(DataflowTransfer, NonControllingUnknownStaysUnknown) {
  const Ternary ix[] = {Ternary::kOne, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, ix), Ternary::kX);
  const Ternary zx[] = {Ternary::kZero, Ternary::kX};
  EXPECT_EQ(eval_gate_ternary(GateType::kOr, zx), Ternary::kX);
  EXPECT_EQ(eval_gate_ternary(GateType::kXor, zx), Ternary::kX);
}

TEST(DataflowTransfer, FullyKnownInputsEvaluateExactly) {
  const Ternary oz[] = {Ternary::kOne, Ternary::kZero};
  EXPECT_EQ(eval_gate_ternary(GateType::kXor, oz), Ternary::kOne);
  EXPECT_EQ(eval_gate_ternary(GateType::kXnor, oz), Ternary::kZero);
  const Ternary one[] = {Ternary::kOne};
  EXPECT_EQ(eval_gate_ternary(GateType::kNot, one), Ternary::kZero);
  EXPECT_EQ(eval_gate_ternary(GateType::kBuf, one), Ternary::kOne);
  EXPECT_EQ(eval_gate_ternary(GateType::kConst0, {}), Ternary::kZero);
  EXPECT_EQ(eval_gate_ternary(GateType::kConst1, {}), Ternary::kOne);
}

TEST(DataflowTransfer, BottomInputsProveNothing) {
  // ⊥ is treated as X: an AND of ⊥ and 1 must not claim a constant.
  const Ternary bo[] = {Ternary::kBottom, Ternary::kOne};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, bo), Ternary::kX);
  // ...but a controlling 0 still dominates.
  const Ternary bz[] = {Ternary::kBottom, Ternary::kZero};
  EXPECT_EQ(eval_gate_ternary(GateType::kAnd, bz), Ternary::kZero);
}

// --- always valuation ------------------------------------------------------

TEST(DataflowAlways, ConstantsPropagateThroughChains) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c1 = b.gate(GateType::kConst1, "c1", {});
  const NetId n = b.gate(GateType::kNot, "n", {c1});       // 0
  const NetId y = b.gate(GateType::kAnd, "y", {n, a});     // 0 (controlling)
  const NetId z = b.gate(GateType::kOr, "z", {y, a});      // X
  b.nl.mark_primary_output(z);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_EQ(facts.always[c1.value()], Ternary::kOne);
  EXPECT_EQ(facts.always[n.value()], Ternary::kZero);
  EXPECT_EQ(facts.always[y.value()], Ternary::kZero);
  EXPECT_EQ(facts.always[a.value()], Ternary::kX);
  EXPECT_EQ(facts.always[z.value()], Ternary::kX);
  EXPECT_TRUE(facts.always_constant(y));
  EXPECT_FALSE(facts.always_constant(z));
}

TEST(DataflowAlways, FlopOutputsArePinnedToX) {
  Builder b;
  const NetId c1 = b.gate(GateType::kConst1, "c1", {});
  const NetId q = b.gate(GateType::kDff, "q", {c1});
  const NetId y = b.gate(GateType::kBuf, "y", {q});
  b.nl.mark_primary_output(y);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  // `always` must hold at cycle 0 from any power-up state, so the flop and
  // its fanout stay X even though D is constant 1.
  EXPECT_EQ(facts.always[q.value()], Ternary::kX);
  EXPECT_EQ(facts.always[y.value()], Ternary::kX);
}

TEST(DataflowAlways, UndrivenNetsAreBottomAndProveNothing) {
  Builder b;
  const NetId floating = b.nl.add_net("floating");  // no driver, not a PI
  const NetId y = b.gate(GateType::kAnd, "y", {floating, floating});
  b.nl.mark_primary_output(y);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_EQ(facts.always[floating.value()], Ternary::kBottom);
  EXPECT_FALSE(facts.always_constant(floating));
  EXPECT_FALSE(facts.always_constant(y));
}

TEST(DataflowAlways, TerminatesOnCombinationalCycles) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId x = b.nl.add_net("x");
  const NetId y = b.nl.add_net("y");
  b.nl.add_gate(GateType::kAnd, x, {a, y});
  b.nl.add_gate(GateType::kBuf, y, {x});
  b.nl.mark_primary_output(y);

  // Must not hang.
  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_EQ(facts.always[x.value()], Ternary::kX);
  EXPECT_EQ(facts.always[y.value()], Ternary::kX);
}

TEST(DataflowAlways, ConstantSideInputBreaksIntoCycle) {
  Builder b;
  const NetId c0 = b.gate(GateType::kConst0, "c0", {});
  const NetId x = b.nl.add_net("x");
  const NetId y = b.nl.add_net("y");
  // x = AND(c0, y) is 0 regardless of the cycle; y follows.
  b.nl.add_gate(GateType::kAnd, x, {c0, y});
  b.nl.add_gate(GateType::kBuf, y, {x});
  b.nl.mark_primary_output(y);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_EQ(facts.always[x.value()], Ternary::kZero);
  EXPECT_EQ(facts.always[y.value()], Ternary::kZero);
}

TEST(DataflowAlways, ConstantMaskMatchesAlwaysConstant) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c0 = b.gate(GateType::kConst0, "c0", {});
  const NetId y = b.gate(GateType::kAnd, "y", {a, c0});
  b.nl.mark_primary_output(y);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  const std::vector<std::uint8_t> mask = facts.constant_mask();
  ASSERT_EQ(mask.size(), b.nl.net_count());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_EQ(mask[i] != 0, facts.always_constant(b.nl.net_id_at(i)))
        << "net index " << i;
  }
  EXPECT_NE(mask[y.value()], 0);
  EXPECT_EQ(mask[a.value()], 0);
}

// --- steady valuation ------------------------------------------------------

TEST(DataflowSteady, FlopFedConstantSettles) {
  Builder b;
  const NetId c1 = b.gate(GateType::kConst1, "c1", {});
  const NetId q = b.gate(GateType::kDff, "q", {c1});
  b.nl.mark_primary_output(q);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_TRUE(facts.converged);
  EXPECT_EQ(facts.steady[q.value()], Ternary::kOne);
  EXPECT_TRUE(facts.steady_constant(q));
  // ...while `always` still holds X at cycle 0.
  EXPECT_EQ(facts.always[q.value()], Ternary::kX);
}

TEST(DataflowSteady, ConstantRipplesDownFlopChain) {
  Builder b;
  const NetId c0 = b.gate(GateType::kConst0, "c0", {});
  const NetId q0 = b.gate(GateType::kDff, "q0", {c0});
  const NetId q1 = b.gate(GateType::kDff, "q1", {q0});
  const NetId q2 = b.gate(GateType::kDff, "q2", {q1});
  b.nl.mark_primary_output(q2);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_TRUE(facts.converged);
  EXPECT_EQ(facts.steady[q0.value()], Ternary::kZero);
  EXPECT_EQ(facts.steady[q1.value()], Ternary::kZero);
  EXPECT_EQ(facts.steady[q2.value()], Ternary::kZero);
  EXPECT_GE(facts.iterations, 3u);
}

TEST(DataflowSteady, OscillatingFlopFreezesAtX) {
  Builder b;
  const NetId q = b.nl.add_net("q");
  const NetId nq = b.nl.add_net("nq");
  b.nl.add_gate(GateType::kDff, q, {nq});
  b.nl.add_gate(GateType::kNot, nq, {q});
  b.nl.mark_primary_output(q);

  // Must not diverge.
  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_EQ(facts.steady[q.value()], Ternary::kX);
  EXPECT_FALSE(facts.steady_constant(q));
}

TEST(DataflowSteady, IterationBudgetExhaustionFallsBackToAlways) {
  // A 4-deep flop chain cannot settle in 1 round; the sound fallback is
  // steady == always.
  Builder b;
  const NetId c1 = b.gate(GateType::kConst1, "c1", {});
  NetId prev = c1;
  for (int i = 0; i < 4; ++i)
    prev = b.gate(GateType::kDff, "q" + std::to_string(i), {prev});
  b.nl.mark_primary_output(prev);

  DataflowOptions options;
  options.max_iterations = 1;
  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl), options);
  EXPECT_FALSE(facts.converged);
  EXPECT_EQ(facts.steady, facts.always);
}

// --- stuck flops -----------------------------------------------------------

TEST(DataflowStuck, SelfLoopThroughBufferHoldsState) {
  Builder b;
  const NetId q = b.nl.add_net("q");
  const NetId d = b.nl.add_net("d");
  b.nl.add_gate(GateType::kDff, q, {d});
  b.nl.add_gate(GateType::kBuf, d, {q});
  b.nl.mark_primary_output(q);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  ASSERT_EQ(facts.stuck_flops.size(), 1u);
  EXPECT_TRUE(facts.stuck_flops[0].holds_state);
}

TEST(DataflowStuck, RecirculatingMuxWithDeadSelectHoldsState) {
  // d = OR(AND(en, din), AND(!en, q)) with en tied 0: d always equals q.
  Builder b;
  const NetId din = b.pi("din");
  const NetId en = b.gate(GateType::kConst0, "en", {});
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  const NetId q = b.nl.add_net("q");
  const NetId load = b.gate(GateType::kAnd, "load", {en, din});
  const NetId hold = b.gate(GateType::kAnd, "hold", {nen, q});
  const NetId d = b.gate(GateType::kOr, "d", {load, hold});
  b.nl.add_gate(GateType::kDff, q, {d});
  b.nl.mark_primary_output(q);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  ASSERT_EQ(facts.stuck_flops.size(), 1u);
  EXPECT_EQ(facts.stuck_flops[0].flop, b.nl.driver_of(q).value());
  EXPECT_TRUE(facts.stuck_flops[0].holds_state);
}

TEST(DataflowStuck, LiveFlopIsNotReported) {
  Builder b;
  const NetId din = b.pi("din");
  const NetId q = b.gate(GateType::kDff, "q", {din});
  b.nl.mark_primary_output(q);

  const DataflowFacts facts = run_dataflow(CompactView::build(b.nl));
  EXPECT_TRUE(facts.stuck_flops.empty());
}

// --- engine-level ----------------------------------------------------------

TEST(DataflowEngine, CancelledCheckpointStopsTheRun) {
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  exec::CancelToken token;
  token.request_cancel();
  DataflowOptions options;
  options.checkpoint = exec::Checkpoint(token, exec::Deadline());
  EXPECT_THROW((void)run_dataflow(CompactView::build(nl), options),
               exec::CancelledError);
}

TEST(DataflowEngine, FactsAreIdenticalAtAnyJobCount) {
  const Netlist nl = itc::build_benchmark("b13s").netlist;
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(1);
  const DataflowFacts serial = run_dataflow(CompactView::build(nl));
  ThreadPool::set_global_jobs(8);
  const DataflowFacts parallel = run_dataflow(CompactView::build(nl));
  ThreadPool::set_global_jobs(restore);

  EXPECT_EQ(serial.always, parallel.always);
  EXPECT_EQ(serial.steady, parallel.steady);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  ASSERT_EQ(serial.stuck_flops.size(), parallel.stuck_flops.size());
  for (std::size_t i = 0; i < serial.stuck_flops.size(); ++i) {
    EXPECT_EQ(serial.stuck_flops[i].flop, parallel.stuck_flops[i].flop);
    EXPECT_EQ(serial.stuck_flops[i].holds_state,
              parallel.stuck_flops[i].holds_state);
    EXPECT_EQ(serial.stuck_flops[i].settles_to,
              parallel.stuck_flops[i].settles_to);
  }
}

TEST(DataflowEngine, CombinationalOrderRespectsDependencies) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId x = b.gate(GateType::kNot, "x", {a});
  const NetId y = b.gate(GateType::kAnd, "y", {x, a});
  const NetId z = b.gate(GateType::kOr, "z", {y, x});
  b.nl.mark_primary_output(z);

  const std::vector<GateId> order =
      combinational_order(CompactView::build(b.nl));
  ASSERT_EQ(order.size(), 3u);
  auto position = [&](NetId out) {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (b.nl.gate(order[i]).output == out) return i;
    return order.size();
  };
  EXPECT_LT(position(x), position(y));
  EXPECT_LT(position(y), position(z));
}

TEST(DataflowEngine, CombinationalOrderToleratesCycles) {
  {
    Builder b;
    const NetId a = b.pi("a");
    const NetId x = b.nl.add_net("x");
    const NetId y = b.nl.add_net("y");
    b.nl.add_gate(GateType::kAnd, x, {a, y});
    b.nl.add_gate(GateType::kBuf, y, {x});
    b.nl.mark_primary_output(y);
    EXPECT_EQ(combinational_order(CompactView::build(b.nl)).size(),
              2u);  // all gates, no throw
  }

  // An acyclic prefix declared out of dependency order, a two-gate loop, and
  // gates downstream of the loop, with a flop between.  The expected order
  // was recorded from the pointer-netlist Kahn pass: the ready set seeds in
  // gate-id order, readers follow fanout order, and the gates the loop
  // holds back come last in gate-id order.
  Builder b;
  const NetId a = b.pi("a");
  const NetId in_b = b.pi("b");
  const NetId s = b.nl.add_net("s");
  const NetId t = b.nl.add_net("t");
  const NetId x = b.nl.add_net("x");
  const NetId y = b.nl.add_net("y");
  const NetId d1 = b.nl.add_net("d1");
  const NetId q = b.nl.add_net("q");
  b.nl.add_gate(GateType::kAnd, s, {t, in_b});
  b.nl.add_gate(GateType::kNot, t, {a});
  b.nl.add_gate(GateType::kOr, x, {s, y});
  b.nl.add_gate(GateType::kAnd, y, {x, a});
  b.nl.add_gate(GateType::kXor, d1, {y, t});
  b.nl.add_gate(GateType::kDff, q, {d1});
  const NetId r = b.gate(GateType::kNand, "r", {q, in_b});
  const NetId d2 = b.gate(GateType::kNot, "d2", {d1});
  const NetId u = b.gate(GateType::kBuf, "u", {a});
  const NetId v = b.gate(GateType::kAnd, "v", {u, s});
  b.nl.mark_primary_output(r);
  b.nl.mark_primary_output(d2);
  b.nl.mark_primary_output(v);

  std::vector<std::string> order;
  for (GateId g : combinational_order(CompactView::build(b.nl)))
    order.push_back(b.nl.net(b.nl.gate(g).output).name);
  EXPECT_EQ(order, (std::vector<std::string>{"t", "r", "u", "s", "v", "x",
                                             "y", "d1", "d2"}));
}

// --- const-net rule --------------------------------------------------------

TEST(DataflowRules, ConstNetFlagsDerivedConstantsOnly) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c0 = b.gate(GateType::kConst0, "c0", {});
  const NetId y = b.gate(GateType::kAnd, "y", {a, c0});  // derived constant
  b.nl.mark_primary_output(y);

  const AnalysisResult result = run_rule(b.nl, "const-net");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "const-net");
  EXPECT_NE(result.findings[0].message.find("'y'"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("constant 0"), std::string::npos);
  // The constant gate's own net c0 is not a finding.
  ASSERT_EQ(result.findings[0].nets.size(), 1u);
  EXPECT_EQ(result.findings[0].nets[0], y);
}

TEST(DataflowRules, ConstNetSilentOnLiveLogic) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  b.nl.mark_primary_output(y);
  EXPECT_TRUE(run_rule(b.nl, "const-net").findings.empty());
}

// --- stuck-ff rule ---------------------------------------------------------

TEST(DataflowRules, StuckFfFlagsHoldState) {
  Builder b;
  const NetId q = b.nl.add_net("q");
  b.nl.add_gate(GateType::kDff, q, {q});  // d wired straight to q
  b.nl.mark_primary_output(q);

  const AnalysisResult result = run_rule(b.nl, "stuck-ff");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("never change state"),
            std::string::npos);
}

TEST(DataflowRules, StuckFfFlagsSettlingFlop) {
  Builder b;
  const NetId c1 = b.gate(GateType::kConst1, "c1", {});
  const NetId q = b.gate(GateType::kDff, "q", {c1});
  b.nl.mark_primary_output(q);

  const AnalysisResult result = run_rule(b.nl, "stuck-ff");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("settles to constant 1"),
            std::string::npos);
}

TEST(DataflowRules, StuckFfSilentOnLiveFlop) {
  Builder b;
  const NetId din = b.pi("din");
  const NetId q = b.gate(GateType::kDff, "q", {din});
  b.nl.mark_primary_output(q);
  EXPECT_TRUE(run_rule(b.nl, "stuck-ff").findings.empty());
}

// --- redundant-mux rule ----------------------------------------------------

TEST(DataflowRules, RedundantMuxFlagsConstantSelect) {
  Builder b;
  const NetId d0 = b.pi("d0");
  const NetId d1 = b.pi("d1");
  const NetId sel = b.gate(GateType::kConst1, "sel_const", {});
  const NetId sel_wire = b.gate(GateType::kBuf, "sel", {sel});
  const NetId nsel = b.gate(GateType::kNot, "nsel", {sel_wire});
  const NetId t = b.gate(GateType::kAnd, "t", {sel_wire, d1});
  const NetId e = b.gate(GateType::kAnd, "e", {nsel, d0});
  const NetId y = b.gate(GateType::kOr, "y", {t, e});
  b.nl.mark_primary_output(y);

  const AnalysisResult result = run_rule(b.nl, "redundant-mux");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "redundant-mux");
  EXPECT_NE(result.findings[0].message.find("'y'"), std::string::npos);
}

TEST(DataflowRules, RedundantMuxSilentOnLiveSelect) {
  Builder b;
  const NetId d0 = b.pi("d0");
  const NetId d1 = b.pi("d1");
  const NetId sel = b.pi("sel");
  const NetId nsel = b.gate(GateType::kNot, "nsel", {sel});
  const NetId t = b.gate(GateType::kAnd, "t", {sel, d1});
  const NetId e = b.gate(GateType::kAnd, "e", {nsel, d0});
  const NetId y = b.gate(GateType::kOr, "y", {t, e});
  b.nl.mark_primary_output(y);
  EXPECT_TRUE(run_rule(b.nl, "redundant-mux").findings.empty());
}

TEST(DataflowRules, FamilyBenchmarksAreCleanUnderDataflowRules) {
  // The ITC'99-style families contain no derived constants, so none of the
  // engine-backed warning rules may fire — this is what keeps the lint gate
  // in scripts/check.sh green at --fail-on=warning.
  for (const char* name : {"b03s", "b13s"}) {
    SCOPED_TRACE(name);
    const Netlist nl = itc::build_benchmark(name).netlist;
    for (const char* rule : {"const-net", "stuck-ff", "redundant-mux"}) {
      SCOPED_TRACE(rule);
      EXPECT_TRUE(run_rule(nl, rule).findings.empty());
    }
  }
}

}  // namespace
}  // namespace netrev::analysis
