#include "analysis/analyzer.h"

#include <unordered_map>
#include <unordered_set>

#include "analysis/scc.h"

namespace netrev::analysis {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

std::size_t AnalysisResult::count(diag::Severity severity) const {
  std::size_t n = 0;
  for (const Finding& finding : findings)
    if (finding.severity == severity) ++n;
  return n;
}

bool AnalysisResult::has_finding_at_least(diag::Severity threshold) const {
  for (const Finding& finding : findings)
    if (finding.severity >= threshold) return true;
  return false;
}

std::string AnalysisResult::summary() const {
  return std::to_string(findings.size()) + " finding(s): " +
         std::to_string(error_count()) + " error(s), " +
         std::to_string(warning_count()) + " warning(s), " +
         std::to_string(note_count()) + " note(s); " +
         std::to_string(rules_run) + " rule(s) run";
}

AnalysisResult analyze(const Netlist& nl, const AnalysisOptions& options,
                       const diag::Diagnostics* parse_diags,
                       const RuleRegistry& registry,
                       const DataflowFacts* dataflow) {
  std::vector<const AnalysisRule*> selected;
  if (options.enabled_rules.empty()) {
    for (const auto& rule : registry.rules()) selected.push_back(rule.get());
  } else {
    selected = registry.require(options.enabled_rules);
  }

  AnalysisContext context{nl, options, parse_diags};
  context.dataflow = dataflow;
  AnalysisResult result;
  for (const AnalysisRule* rule : selected) {
    rule->run(context, result.findings);
    ++result.rules_run;
  }
  return result;
}

void emit(const AnalysisResult& result, diag::Diagnostics& diags,
          const std::string& file) {
  for (const Finding& finding : result.findings) {
    std::string message = "[" + finding.rule + "] " + finding.message;
    if (!finding.fix_hint.empty()) message += " (fix: " + finding.fix_hint + ")";
    diags.report(finding.severity, std::move(message), {file, 0, 0});
  }
}

void require_acyclic(const Netlist& nl) {
  const std::vector<CombinationalScc> sccs = combinational_sccs(nl);
  if (sccs.empty()) return;
  throw StructuralDefectError(
      "netlist has " + std::to_string(sccs.size()) +
      " combinational cycle(s); first: " + describe_cycle(nl, sccs.front()) +
      " (run 'netrev lint' for the full report, or load with --permissive to "
      "break cycles)");
}

CycleBreakResult break_combinational_cycles(const Netlist& nl,
                                            diag::Diagnostics& diags) {
  CycleBreakResult result;
  Netlist& out = result.netlist;
  out.set_name(nl.name());

  // Nets first, preserving ids, names, and port roles.
  for (std::size_t i = 0; i < nl.net_count(); ++i) {
    const netlist::Net& net = nl.net(nl.net_id_at(i));
    const NetId id = out.add_net(net.name);
    if (net.is_primary_input) out.mark_primary_input(id);
    if (net.is_primary_output) out.mark_primary_output(id);
  }

  // One cut per cycle: the first in-cycle input of the cycle's first gate is
  // rewired to a fresh constant-0 net.
  struct Cut {
    std::size_t input_pos;
    NetId replacement;
  };
  std::unordered_map<std::uint32_t, Cut> cuts;  // keyed by gate id
  std::vector<NetId> cut_nets;
  for (const CombinationalScc& scc : combinational_sccs(nl)) {
    std::unordered_set<std::uint32_t> members;
    for (GateId g : scc.gates) members.insert(g.value());

    const GateId victim = scc.gates.front();
    const netlist::Gate& gate = nl.gate(victim);
    for (std::size_t pos = 0; pos < gate.inputs.size(); ++pos) {
      const auto drv = nl.driver_of(gate.inputs[pos]);
      if (!drv || !members.contains(drv->value())) continue;

      std::string name = "__cut" + std::to_string(result.cycles_broken);
      while (out.find_net(name)) name += "_";
      const NetId replacement = out.add_net(name);
      cuts.emplace(victim.value(), Cut{pos, replacement});
      cut_nets.push_back(replacement);
      ++result.cycles_broken;
      diags.warning("broke combinational cycle of " +
                    std::to_string(scc.gates.size()) +
                    " gate(s) (" + describe_cycle(nl, scc) +
                    "): input '" + nl.net(gate.inputs[pos]).name +
                    "' of the gate driving '" + nl.net(gate.output).name +
                    "' rewired to constant 0");
      break;
    }
  }

  // Gates in original file order (grouping depends on it); the tie-off
  // constants append after, so no original line shifts.
  for (std::size_t g = 0; g < nl.gate_count(); ++g) {
    const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
    std::vector<NetId> inputs = gate.inputs;
    if (const auto cut = cuts.find(static_cast<std::uint32_t>(g));
        cut != cuts.end())
      inputs[cut->second.input_pos] = cut->second.replacement;
    out.add_gate(gate.type, gate.output, inputs);
  }
  for (NetId net : cut_nets) out.add_gate(GateType::kConst0, net, {});
  return result;
}

}  // namespace netrev::analysis
