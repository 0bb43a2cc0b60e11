// Tests for the control-domain inference (analysis/domains.h): root tracing
// with polarity, enable-mux / sync-set / sync-reset detection across gate
// forms, the kMinControlFanout gate, deterministic grouping, and the
// mixed-domain-word lint rule built on the groups.
#include "analysis/domains.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/thread_pool.h"
#include "exec/cancel.h"
#include "itc/family.h"

namespace netrev::analysis {
namespace {

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
  // One load-enable bit in AND-OR form: d = (en & din) | (!en & q).
  NetId enable_bit(NetId en, NetId nen, NetId din, const std::string& name) {
    const NetId q = nl.add_net(name);
    const NetId load = gate(GateType::kAnd, name + "_load", {en, din});
    const NetId hold = gate(GateType::kAnd, name + "_hold", {nen, q});
    const NetId d = gate(GateType::kOr, name + "_d", {load, hold});
    nl.add_gate(GateType::kDff, q, {d});
    return q;
  }
};

const DomainSignature& signature_of(const DomainAnalysis& analysis,
                                    const Netlist& nl,
                                    const std::string& q_name) {
  for (const FlopDomain& flop : analysis.flops)
    if (nl.net(nl.gate(flop.flop).output).name == q_name)
      return flop.signature;
  static const DomainSignature kMissing;
  ADD_FAILURE() << "no flop with output '" << q_name << "'";
  return kMissing;
}

// --- root tracing ----------------------------------------------------------

TEST(DomainTrace, WireChainsCollapseOntoTheRoot) {
  Builder b;
  const NetId root = b.pi("root");
  const NetId w1 = b.gate(GateType::kBuf, "w1", {root});
  const NetId w2 = b.gate(GateType::kBuf, "w2", {w1});
  b.nl.mark_primary_output(w2);

  const ControlRoot traced = trace_control_root(b.nl, w2);
  EXPECT_EQ(traced.net, root);
  EXPECT_TRUE(traced.active_high);
}

TEST(DomainTrace, InversionsFoldIntoPolarity) {
  Builder b;
  const NetId root = b.pi("root");
  const NetId n1 = b.gate(GateType::kNot, "n1", {root});
  const NetId n2 = b.gate(GateType::kNot, "n2", {n1});
  b.nl.mark_primary_output(n2);

  const ControlRoot once = trace_control_root(b.nl, n1);
  EXPECT_EQ(once.net, root);
  EXPECT_FALSE(once.active_high);
  const ControlRoot twice = trace_control_root(b.nl, n2);
  EXPECT_EQ(twice.net, root);
  EXPECT_TRUE(twice.active_high);
  // Tracing the active-low sense flips the answer.
  EXPECT_FALSE(trace_control_root(b.nl, n2, /*active_high=*/false).active_high);
}

TEST(DomainTrace, StopsAtNonWireDrivers) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  const NetId w = b.gate(GateType::kBuf, "w", {y});
  b.nl.mark_primary_output(w);
  EXPECT_EQ(trace_control_root(b.nl, w).net, y);
}

TEST(DomainTrace, BufferCycleTerminates) {
  Builder b;
  const NetId x = b.nl.add_net("x");
  const NetId y = b.nl.add_net("y");
  b.nl.add_gate(GateType::kBuf, x, {y});
  b.nl.add_gate(GateType::kBuf, y, {x});
  b.nl.mark_primary_output(y);
  EXPECT_TRUE(trace_control_root(b.nl, y).valid());  // must not hang
}

// --- enable detection ------------------------------------------------------

TEST(DomainEnable, AndOrMuxYieldsActiveHighEnable) {
  Builder b;
  const NetId en = b.pi("load_en");
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    b.enable_bit(en, nen, b.pi("din" + tag), "r[" + tag + "]");
  }

  const DomainAnalysis analysis = analyze_domains(b.nl);
  const DomainSignature& sig = signature_of(analysis, b.nl, "r[0]");
  ASSERT_TRUE(sig.enable.valid());
  EXPECT_EQ(sig.enable.net, en);
  EXPECT_TRUE(sig.enable.active_high);
  EXPECT_TRUE(sig.sets.empty());
  EXPECT_TRUE(sig.resets.empty());
  EXPECT_EQ(sig.describe(b.nl), "enable=load_en");
}

TEST(DomainEnable, NandNandMuxNormalizesToTheSameEnable) {
  Builder b;
  const NetId en = b.pi("load_en");
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    const NetId din = b.pi("din" + tag);
    const NetId q = b.nl.add_net("r[" + tag + "]");
    const NetId load = b.gate(GateType::kNand, "load" + tag, {en, din});
    const NetId hold = b.gate(GateType::kNand, "hold" + tag, {nen, q});
    const NetId d = b.gate(GateType::kNand, "d" + tag, {load, hold});
    b.nl.add_gate(GateType::kDff, q, {d});
  }

  const DomainAnalysis analysis = analyze_domains(b.nl);
  const DomainSignature& sig = signature_of(analysis, b.nl, "r[2]");
  ASSERT_TRUE(sig.enable.valid());
  EXPECT_EQ(sig.enable.net, en);
  EXPECT_TRUE(sig.enable.active_high);
}

TEST(DomainEnable, BothBranchesRecirculatingIsNotAnEnable) {
  Builder b;
  const NetId sel = b.pi("sel");
  const NetId nsel = b.gate(GateType::kNot, "nsel", {sel});
  const NetId extra0 = b.gate(GateType::kBuf, "extra0", {sel});
  const NetId extra1 = b.gate(GateType::kBuf, "extra1", {sel});
  b.nl.mark_primary_output(extra0);
  b.nl.mark_primary_output(extra1);
  const NetId q = b.nl.add_net("q");
  const NetId t0 = b.gate(GateType::kAnd, "t0", {sel, q});
  const NetId t1 = b.gate(GateType::kAnd, "t1", {nsel, q});
  const NetId d = b.gate(GateType::kOr, "d", {t0, t1});
  b.nl.add_gate(GateType::kDff, q, {d});

  // The extra buffers lift sel's fanout to kMinControlFanout, so only the
  // double recirculation can reject it.
  ASSERT_GE(b.nl.net(sel).fanouts.size(), kMinControlFanout);
  const DomainAnalysis analysis = analyze_domains(b.nl);
  EXPECT_FALSE(signature_of(analysis, b.nl, "q").enable.valid());
}

// --- set / reset detection -------------------------------------------------

TEST(DomainSets, SharedOrTermIsAnActiveHighSet) {
  Builder b;
  const NetId set = b.pi("set");
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    const NetId x = b.pi("x" + tag);
    const NetId q = b.nl.add_net("r[" + tag + "]");
    const NetId d = b.gate(GateType::kOr, "d" + tag, {set, x});
    b.nl.add_gate(GateType::kDff, q, {d});
  }

  const DomainAnalysis analysis = analyze_domains(b.nl);
  const DomainSignature& sig = signature_of(analysis, b.nl, "r[1]");
  ASSERT_EQ(sig.sets.size(), 1u);
  EXPECT_EQ(sig.sets[0].net, set);
  EXPECT_TRUE(sig.sets[0].active_high);
  // The per-bit data wires x0..x3 (fanout 1 < kMinControlFanout) must not
  // be mistaken for control.
  EXPECT_TRUE(sig.resets.empty());
  EXPECT_EQ(sig.describe(b.nl), "set=set");
}

TEST(DomainResets, SharedAndTermIsAnActiveLowReset) {
  Builder b;
  const NetId rstn = b.pi("rstn");
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    const NetId x = b.pi("x" + tag);
    const NetId q = b.nl.add_net("r[" + tag + "]");
    const NetId d = b.gate(GateType::kAnd, "d" + tag, {rstn, x});
    b.nl.add_gate(GateType::kDff, q, {d});
  }

  const DomainAnalysis analysis = analyze_domains(b.nl);
  const DomainSignature& sig = signature_of(analysis, b.nl, "r[3]");
  ASSERT_EQ(sig.resets.size(), 1u);
  EXPECT_EQ(sig.resets[0].net, rstn);
  // d = rstn & x: driving rstn LOW forces D to 0, so the reset asserts low.
  EXPECT_FALSE(sig.resets[0].active_high);
  EXPECT_EQ(sig.describe(b.nl), "reset=!rstn");
}

TEST(DomainSets, BufferedControlCollapsesOntoOneRoot) {
  // Per-bit buffer trees on the same set line must produce ONE signature.
  Builder b;
  const NetId set = b.pi("set");
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    const NetId buffered =
        b.gate(GateType::kBuf, "set_buf" + tag, {set});
    const NetId x = b.pi("x" + tag);
    const NetId q = b.nl.add_net("r[" + tag + "]");
    const NetId d = b.gate(GateType::kOr, "d" + tag, {buffered, x});
    b.nl.add_gate(GateType::kDff, q, {d});
  }

  const DomainAnalysis analysis = analyze_domains(b.nl);
  const DomainSignature& first = signature_of(analysis, b.nl, "r[0]");
  ASSERT_EQ(first.sets.size(), 1u);
  EXPECT_EQ(first.sets[0].net, set);
  for (int i = 1; i < 4; ++i)
    EXPECT_EQ(signature_of(analysis, b.nl, "r[" + std::to_string(i) + "]"),
              first);
}

TEST(DomainOptionsTest, MinControlFanoutGatesLowFanoutRoots) {
  // `set` counts as a control root once it feeds kMinControlFanout gates.
  const auto trivial_with_fanout = [](std::size_t fanout) {
    Builder b;
    const NetId set = b.pi("set");
    const NetId x = b.pi("x");
    const NetId q = b.nl.add_net("q");
    const NetId d = b.gate(GateType::kOr, "d", {set, x});
    b.nl.add_gate(GateType::kDff, q, {d});
    for (std::size_t i = 1; i < fanout; ++i)
      b.nl.mark_primary_output(
          b.gate(GateType::kBuf, "tap" + std::to_string(i), {set}));
    const DomainAnalysis analysis = analyze_domains(b.nl);
    return signature_of(analysis, b.nl, "q").trivial();
  };
  EXPECT_TRUE(trivial_with_fanout(kMinControlFanout - 1));
  EXPECT_FALSE(trivial_with_fanout(kMinControlFanout));
}

// --- grouping --------------------------------------------------------------

TEST(DomainGrouping, SharedEnableRegisterFormsOneGroup) {
  Builder b;
  const NetId en = b.pi("load_en");
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    b.enable_bit(en, nen, b.pi("din" + tag), "r[" + tag + "]");
  }
  // One free-running flop lands in its own (trivial) group.
  const NetId other = b.gate(GateType::kDff, "lone", {b.pi("dl")});
  b.nl.mark_primary_output(other);

  const DomainAnalysis analysis = analyze_domains(b.nl);
  ASSERT_EQ(analysis.groups.size(), 2u);
  // First-member file order: the register bits were added first.
  EXPECT_EQ(analysis.groups[0].flops.size(), 4u);
  EXPECT_TRUE(analysis.groups[0].signature.enable.valid());
  EXPECT_EQ(analysis.groups[1].flops.size(), 1u);
  EXPECT_TRUE(analysis.groups[1].signature.trivial());
}

TEST(DomainGrouping, ResultsAreIdenticalAtAnyJobCount) {
  const Netlist nl = itc::build_benchmark("b13s").netlist;
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(1);
  const DomainAnalysis serial = analyze_domains(nl);
  ThreadPool::set_global_jobs(8);
  const DomainAnalysis parallel = analyze_domains(nl);
  ThreadPool::set_global_jobs(restore);

  ASSERT_EQ(serial.flops.size(), parallel.flops.size());
  for (std::size_t i = 0; i < serial.flops.size(); ++i) {
    EXPECT_EQ(serial.flops[i].flop, parallel.flops[i].flop);
    EXPECT_EQ(serial.flops[i].signature, parallel.flops[i].signature);
  }
  ASSERT_EQ(serial.groups.size(), parallel.groups.size());
  for (std::size_t i = 0; i < serial.groups.size(); ++i) {
    EXPECT_EQ(serial.groups[i].signature, parallel.groups[i].signature);
    EXPECT_EQ(serial.groups[i].flops, parallel.groups[i].flops);
  }
}

TEST(DomainEngine, CancelledCheckpointStopsTheRun) {
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  exec::CancelToken token;
  token.request_cancel();
  const exec::Checkpoint checkpoint(token, exec::Deadline());
  EXPECT_THROW((void)analyze_domains(nl, checkpoint), exec::CancelledError);
}

// --- mux-select detection --------------------------------------------------

TEST(DomainMux, DetectsAndOrSelect) {
  Builder b;
  const NetId d0 = b.pi("d0");
  const NetId d1 = b.pi("d1");
  const NetId sel = b.pi("sel");
  const NetId nsel = b.gate(GateType::kNot, "nsel", {sel});
  const NetId t = b.gate(GateType::kAnd, "t", {sel, d1});
  const NetId e = b.gate(GateType::kAnd, "e", {nsel, d0});
  const NetId y = b.gate(GateType::kOr, "y", {t, e});
  b.nl.mark_primary_output(y);

  const auto select = detect_mux_select(b.nl, b.nl.driver_of(y).value());
  ASSERT_TRUE(select.has_value());
  EXPECT_EQ(*select, sel);
  // The product terms themselves are not muxes.
  EXPECT_FALSE(detect_mux_select(b.nl, b.nl.driver_of(t).value()).has_value());
}

TEST(DomainMux, PlainAndIsNotAMux) {
  Builder b;
  const NetId a = b.pi("a");
  const NetId c = b.pi("c");
  const NetId y = b.gate(GateType::kAnd, "y", {a, c});
  b.nl.mark_primary_output(y);
  EXPECT_FALSE(detect_mux_select(b.nl, b.nl.driver_of(y).value()).has_value());
}

// --- mixed-domain-word rule ------------------------------------------------

AnalysisResult run_mixed_domain(const Netlist& nl) {
  AnalysisOptions options;
  options.enabled_rules = {"mixed-domain-word"};
  return analyze(nl, options);
}

TEST(DomainRules, MixedDomainWordFlagsMinorityOutlier) {
  Builder b;
  const NetId en = b.pi("load_en");
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  for (int i = 0; i < 3; ++i) {
    const std::string tag = std::to_string(i);
    b.enable_bit(en, nen, b.pi("din" + tag), "r[" + tag + "]");
  }
  // Bit 3 free-runs: 3-of-4 dominant enable domain, one outlier.
  const NetId outlier = b.gate(GateType::kDff, "r[3]", {b.pi("din3")});
  b.nl.mark_primary_output(outlier);

  const AnalysisResult result = run_mixed_domain(b.nl);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "mixed-domain-word");
  EXPECT_NE(result.findings[0].message.find("register 'r'"),
            std::string::npos);
  EXPECT_NE(result.findings[0].message.find("enable=load_en"),
            std::string::npos);
  ASSERT_EQ(result.findings[0].nets.size(), 1u);
  EXPECT_EQ(result.findings[0].nets[0], outlier);
}

TEST(DomainRules, MixedDomainWordSilentWithoutADominantMajority) {
  // Every bit carries its own set-term (an FSM-style state register): no
  // dominant domain, so the rule must stay quiet.
  Builder b;
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    const NetId ctrl = b.pi("c" + tag);
    // Fan each control out so it clears kMinControlFanout.
    b.nl.mark_primary_output(b.gate(GateType::kBuf, "cb" + tag, {ctrl}));
    b.nl.mark_primary_output(b.gate(GateType::kBuf, "cc" + tag, {ctrl}));
    const NetId x = b.pi("x" + tag);
    const NetId q = b.nl.add_net("s[" + tag + "]");
    const NetId d = b.gate(GateType::kOr, "d" + tag, {ctrl, x});
    b.nl.add_gate(GateType::kDff, q, {d});
  }
  EXPECT_TRUE(run_mixed_domain(b.nl).findings.empty());
}

TEST(DomainRules, MixedDomainWordSilentOnUniformRegister) {
  Builder b;
  const NetId en = b.pi("load_en");
  const NetId nen = b.gate(GateType::kNot, "nen", {en});
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    b.enable_bit(en, nen, b.pi("din" + tag), "r[" + tag + "]");
  }
  EXPECT_TRUE(run_mixed_domain(b.nl).findings.empty());
}

}  // namespace
}  // namespace netrev::analysis
