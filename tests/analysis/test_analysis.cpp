// Per-rule unit tests for the static-analysis engine, each on a hand-built
// netlist exhibiting exactly one defect, plus engine-level tests (registry,
// rule filtering, finding caps, diag emission, cycle breaking).
#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/scc.h"

namespace netrev::analysis {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// a AND b -> y, observable and fully wired: every rule stays silent.
Netlist clean() {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kAnd, y, {a, b});
  nl.mark_primary_output(y);
  return nl;
}

AnalysisResult run_rule(const Netlist& nl, const std::string& rule,
                        const diag::Diagnostics* parse_diags = nullptr) {
  AnalysisOptions options;
  options.enabled_rules = {rule};
  return analyze(nl, options, parse_diags);
}

std::vector<std::string> rules_hit(const AnalysisResult& result) {
  std::vector<std::string> ids;
  for (const Finding& finding : result.findings) ids.push_back(finding.rule);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(Analyze, CleanNetlistHasNoFindings) {
  const AnalysisResult result = analyze(clean());
  EXPECT_TRUE(result.findings.empty()) << result.summary();
  EXPECT_EQ(result.rules_run, 12u);
  EXPECT_EQ(
      result.summary(),
      "0 finding(s): 0 error(s), 0 warning(s), 0 note(s); 12 rule(s) run");
}

TEST(Analyze, UnknownRuleIdThrowsListingKnownRules) {
  AnalysisOptions options;
  options.enabled_rules = {"no-such-rule"};
  try {
    analyze(clean(), options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no-such-rule"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("comb-cycle"), std::string::npos);
  }
}

TEST(Analyze, EnabledRulesFilterRuns) {
  const AnalysisResult result = run_rule(clean(), "comb-cycle");
  EXPECT_EQ(result.rules_run, 1u);
}

// --- comb-cycle ------------------------------------------------------------

Netlist cyclic() {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kBuf, y, {x});
  nl.mark_primary_output(y);
  return nl;
}

TEST(CombCycleRule, FlagsCycleWithMemberNets) {
  const AnalysisResult result = run_rule(cyclic(), "comb-cycle");
  ASSERT_EQ(result.findings.size(), 1u);
  const Finding& finding = result.findings[0];
  EXPECT_EQ(finding.severity, diag::Severity::kError);
  EXPECT_NE(finding.message.find("x -> y -> x"), std::string::npos);
  EXPECT_EQ(finding.nets.size(), 2u);
  EXPECT_EQ(finding.to_string().rfind("error[comb-cycle]:", 0), 0u);
}

TEST(CombCycleRule, SilentOnRegisterFeedback) {
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId x = nl.add_net("x");
  nl.add_gate(GateType::kNot, x, {q});
  nl.add_gate(GateType::kDff, q, {x});
  nl.mark_primary_output(q);
  EXPECT_TRUE(run_rule(nl, "comb-cycle").findings.empty());
}

// --- multi-driven ----------------------------------------------------------

TEST(MultiDrivenRule, FoldsParserKeepFirstDiagnosticsIntoFindings) {
  Netlist nl = clean();
  diag::Diagnostics parse_diags;
  parse_diags.warning("net already driven: y; gate dropped");
  parse_diags.warning("net already driven: y; gate dropped");

  const AnalysisResult result = run_rule(nl, "multi-driven", &parse_diags);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].severity, diag::Severity::kError);
  EXPECT_NE(result.findings[0].message.find("'y' has 3 drivers"),
            std::string::npos);
  ASSERT_EQ(result.findings[0].nets.size(), 1u);
  EXPECT_EQ(nl.net(result.findings[0].nets[0]).name, "y");
}

TEST(MultiDrivenRule, SilentWithoutParseFacts) {
  EXPECT_TRUE(run_rule(clean(), "multi-driven").findings.empty());
}

// --- undriven-net ----------------------------------------------------------

TEST(UndrivenNetRule, FlagsFloatingInternalNet) {
  Netlist nl = clean();
  const NetId floating = nl.add_net("floating");
  const NetId z = nl.add_net("z");
  nl.add_gate(GateType::kBuf, z, {floating});
  nl.mark_primary_output(z);

  const AnalysisResult result = run_rule(nl, "undriven-net");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].severity, diag::Severity::kError);
  EXPECT_NE(result.findings[0].message.find("'floating'"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("1 reader(s)"), std::string::npos);
}

TEST(UndrivenNetRule, PrimaryInputsAreNotFloating) {
  EXPECT_TRUE(run_rule(clean(), "undriven-net").findings.empty());
}

// --- dead-logic ------------------------------------------------------------

TEST(DeadLogicRule, FlagsConeThatReachesNoOutput) {
  Netlist nl = clean();
  const NetId d1 = nl.add_net("dead1");
  const NetId d2 = nl.add_net("dead2");
  nl.add_gate(GateType::kNot, d1, {*nl.find_net("a")});
  nl.add_gate(GateType::kNot, d2, {d1});

  const AnalysisResult result = run_rule(nl, "dead-logic");
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].severity, diag::Severity::kWarning);
}

TEST(DeadLogicRule, ObservableFlopKeepsItsNextStateConeAlive) {
  // cone -> D -> flop -> Q is a primary output: nothing is dead.
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId d = nl.add_net("d");
  const NetId q = nl.add_net("q");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kNot, d, {a});
  nl.add_gate(GateType::kDff, q, {d});
  nl.mark_primary_output(q);
  EXPECT_TRUE(run_rule(nl, "dead-logic").findings.empty());
}

TEST(DeadLogicRule, UnobservableRegisterLoopIsDead) {
  // Two registers feeding only each other never reach the single PO.
  Netlist nl = clean();
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  const NetId n1 = nl.add_net("n1");
  nl.add_gate(GateType::kNot, n1, {q2});
  nl.add_gate(GateType::kDff, q1, {n1});
  nl.add_gate(GateType::kDff, q2, {q1});

  const AnalysisResult result = run_rule(nl, "dead-logic");
  EXPECT_EQ(result.findings.size(), 3u);
}

TEST(DeadLogicRule, NoOutputsAtAllIsOneFinding) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kNot, y, {a});

  const AnalysisResult result = run_rule(nl, "dead-logic");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("no primary outputs"),
            std::string::npos);
}

// --- const-foldable --------------------------------------------------------

TEST(ConstFoldableRule, FlagsControllingConstantInput) {
  Netlist nl = clean();
  const NetId zero = nl.add_net("zero");
  const NetId g = nl.add_net("gated");
  nl.add_gate(GateType::kConst0, zero, {});
  nl.add_gate(GateType::kAnd, g, {*nl.find_net("a"), zero});
  nl.mark_primary_output(g);

  const AnalysisResult result = run_rule(nl, "const-foldable");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("controlling constant"),
            std::string::npos);
}

TEST(ConstFoldableRule, FlagsAllConstantFanin) {
  Netlist nl = clean();
  const NetId one = nl.add_net("one");
  const NetId inv = nl.add_net("inv");
  nl.add_gate(GateType::kConst1, one, {});
  nl.add_gate(GateType::kNot, inv, {one});
  nl.mark_primary_output(inv);

  const AnalysisResult result = run_rule(nl, "const-foldable");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("all inputs tied to constants"),
            std::string::npos);
}

TEST(ConstFoldableRule, NonControllingConstantIsFoldableOnlyWhenAllConst) {
  // OR with a constant 0 input: 0 is not OR's controlling value and 'a' is
  // free, so the output is not fixed.
  Netlist nl = clean();
  const NetId zero = nl.add_net("zero");
  const NetId g = nl.add_net("g");
  nl.add_gate(GateType::kConst0, zero, {});
  nl.add_gate(GateType::kOr, g, {*nl.find_net("a"), zero});
  nl.mark_primary_output(g);
  EXPECT_TRUE(run_rule(nl, "const-foldable").findings.empty());
}

// --- degenerate-gate -------------------------------------------------------

TEST(DegenerateGateRule, FlagsDuplicateInput) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kXor, y, {a, a});
  nl.mark_primary_output(y);

  const AnalysisResult result = run_rule(nl, "degenerate-gate");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("reads net 'a' twice"),
            std::string::npos);
}

TEST(DegenerateGateRule, FlagsSelfReadingGateOnce) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kOr, y, {a, y, y});
  nl.mark_primary_output(y);

  const AnalysisResult result = run_rule(nl, "degenerate-gate");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("reads its own output"),
            std::string::npos);
}

// --- high-fanout -----------------------------------------------------------

TEST(HighFanoutRule, FlagsOutlierDriverAboveThreshold) {
  Netlist nl;
  const NetId ctrl = nl.add_net("ctrl");
  nl.mark_primary_input(ctrl);
  // ctrl fans out to exactly the floor's worth of gates, everything else to
  // at most 1.
  for (std::size_t i = 0; i < kMinFlaggedFanout; ++i) {
    const NetId a = nl.add_net("a" + std::to_string(i));
    nl.mark_primary_input(a);
    const NetId y = nl.add_net("y" + std::to_string(i));
    nl.add_gate(GateType::kAnd, y, {ctrl, a});
    nl.mark_primary_output(y);
  }

  const AnalysisResult result = run_rule(nl, "high-fanout");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].severity, diag::Severity::kNote);
  EXPECT_EQ(result.findings[0].nets, std::vector<NetId>{ctrl});
  EXPECT_NE(result.findings[0].message.find(
                "drives 16 gate(s) (p99 of this design is 16): candidate "
                "clock/reset/control"),
            std::string::npos);
}

TEST(HighFanoutRule, MinFlaggedFanoutSuppressesSmallDesignNoise) {
  // ctrl and a each drive 8 gates, under kMinFlaggedFanout (16): nothing is
  // flagged.
  Netlist nl;
  const NetId ctrl = nl.add_net("ctrl");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(ctrl);
  nl.mark_primary_input(a);
  for (int i = 0; i < 8; ++i) {
    const NetId y = nl.add_net("y" + std::to_string(i));
    nl.add_gate(GateType::kAnd, y, {ctrl, a});
    nl.mark_primary_output(y);
  }
  EXPECT_TRUE(run_rule(nl, "high-fanout").findings.empty());
}

// --- dff-self-loop ---------------------------------------------------------

TEST(DffSelfLoopRule, FlagsBufferOnlyRecirculation) {
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId b = nl.add_net("b");
  nl.add_gate(GateType::kBuf, b, {q});
  nl.add_gate(GateType::kDff, q, {b});
  nl.mark_primary_output(q);

  const AnalysisResult result = run_rule(nl, "dff-self-loop");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].message.find("state can never change"),
            std::string::npos);
}

TEST(DffSelfLoopRule, ToggleFlopIsLegitimate) {
  Netlist nl;
  const NetId q = nl.add_net("q");
  const NetId n = nl.add_net("n");
  nl.add_gate(GateType::kNot, n, {q});
  nl.add_gate(GateType::kDff, q, {n});
  nl.mark_primary_output(q);
  EXPECT_TRUE(run_rule(nl, "dff-self-loop").findings.empty());
}

TEST(DffSelfLoopRule, DirectSelfDriveIsFlagged) {
  Netlist nl;
  const NetId q = nl.add_net("q");
  nl.add_gate(GateType::kDff, q, {q});
  nl.mark_primary_output(q);
  EXPECT_EQ(run_rule(nl, "dff-self-loop").findings.size(), 1u);
}

// --- engine-level ----------------------------------------------------------

TEST(Analyze, FindingCapFoldsOverflowIntoSummaryFinding) {
  Netlist nl = clean();
  for (std::size_t i = 0; i < kMaxFindingsPerRule + 2; ++i) {
    const NetId f = nl.add_net("float" + std::to_string(i));
    const NetId z = nl.add_net("z" + std::to_string(i));
    nl.add_gate(GateType::kBuf, z, {f});
    nl.mark_primary_output(z);
  }

  const AnalysisResult result = run_rule(nl, "undriven-net");
  ASSERT_EQ(result.findings.size(), kMaxFindingsPerRule + 1);
  EXPECT_EQ(result.findings.back().message,
            "2 further undriven-net finding(s) suppressed (cap 32 per rule)");
}

TEST(Analyze, MultipleDefectsHitMultipleRules) {
  Netlist nl = cyclic();
  const NetId f = nl.add_net("floating");
  const NetId z = nl.add_net("z");
  nl.add_gate(GateType::kBuf, z, {f});

  const AnalysisResult result = analyze(nl);
  const std::vector<std::string> ids = rules_hit(result);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "comb-cycle"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "undriven-net"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "dead-logic"), ids.end());
  EXPECT_TRUE(result.has_finding_at_least(diag::Severity::kError));
}

TEST(Registry, BuiltinHasTwelveRulesAndFindsById) {
  const RuleRegistry& registry = RuleRegistry::builtin();
  EXPECT_EQ(registry.rules().size(), 12u);
  ASSERT_NE(registry.find("comb-cycle"), nullptr);
  ASSERT_NE(registry.find("const-net"), nullptr);
  ASSERT_NE(registry.find("mixed-domain-word"), nullptr);
  EXPECT_EQ(registry.find("comb-cycle")->info().severity,
            diag::Severity::kError);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(Registry, DuplicateIdIsRejected) {
  RuleRegistry registry;
  register_builtin_rules(registry);
  EXPECT_THROW(register_builtin_rules(registry), std::invalid_argument);
}

TEST(Emit, RendersFindingsIntoDiagSink) {
  const AnalysisResult result = run_rule(cyclic(), "comb-cycle");
  diag::Diagnostics diags;
  emit(result, diags, "cyclic.bench");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.entries()[0].location.file, "cyclic.bench");
  EXPECT_NE(diags.entries()[0].message.find("[comb-cycle]"),
            std::string::npos);
  EXPECT_NE(diags.entries()[0].message.find("(fix: "), std::string::npos);
}

TEST(RequireAcyclic, PassesCleanAndThrowsNamingCycle) {
  EXPECT_NO_THROW(require_acyclic(clean()));
  try {
    require_acyclic(cyclic());
    FAIL() << "expected StructuralDefectError";
  } catch (const StructuralDefectError& error) {
    EXPECT_NE(std::string(error.what()).find("x -> y -> x"),
              std::string::npos);
  }
}

TEST(BreakCycles, CutsEveryCycleAndPreservesGateOrder) {
  const Netlist nl = cyclic();
  diag::Diagnostics diags;
  const CycleBreakResult result = break_combinational_cycles(nl, diags);
  EXPECT_EQ(result.cycles_broken, 1u);
  EXPECT_TRUE(combinational_sccs(result.netlist).empty());
  EXPECT_EQ(diags.warning_count(), 1u);

  // Original gates keep their positions; the tie-off constant appends.
  ASSERT_EQ(result.netlist.gate_count(), nl.gate_count() + 1);
  for (std::size_t g = 0; g < nl.gate_count(); ++g)
    EXPECT_EQ(result.netlist.gate(result.netlist.gate_id_at(g)).type,
              nl.gate(nl.gate_id_at(g)).type);
  EXPECT_EQ(
      result.netlist.gate(result.netlist.gate_id_at(nl.gate_count())).type,
      GateType::kConst0);
  EXPECT_TRUE(result.netlist.find_net("__cut0").has_value());
}

TEST(BreakCycles, NoCyclesMeansUntouchedCopy) {
  const Netlist nl = clean();
  diag::Diagnostics diags;
  const CycleBreakResult result = break_combinational_cycles(nl, diags);
  EXPECT_EQ(result.cycles_broken, 0u);
  EXPECT_EQ(result.netlist.gate_count(), nl.gate_count());
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace netrev::analysis
