// Control-signal explorer: shows §2.4/§2.5 in isolation on a benchmark.
//
// For every partially-matching subgroup the identifier encounters, prints
// the relevant control signals it discovered, the assignment trials, and —
// for unified words — a materialized reduced netlist summary (the artifact
// the paper hands to downstream reverse-engineering tools).
//
//   ./control_explorer [benchmark | netlist.v]
#include <cstdio>
#include <string>

#include "netlist/stats.h"
#include "pipeline/session.h"
#include "wordrec/assignment.h"
#include "wordrec/identify.h"
#include "wordrec/reduce.h"

using namespace netrev;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "b12s";
  // Session::load_netlist dispatches on the spec itself (family benchmark
  // name vs netlist file), replacing the manual format branch this example
  // used to carry.
  Session session;
  const LoadedDesign design = session.load_netlist(which);
  const netlist::Netlist& nl = design.nl();

  const netlist::NetlistStats stats = netlist::compute_stats(nl);
  std::printf("design %s: %s\n\n", nl.name().c_str(),
              stats.to_string().c_str());

  const auto identified = session.identify(design);
  const wordrec::IdentifyResult& result = *identified;

  std::printf("pipeline stats:\n");
  std::printf("  potential-bit groups:        %zu\n", result.stats.groups);
  std::printf("  subgroups:                   %zu\n", result.stats.subgroups);
  std::printf("  partially-matching subgroups:%zu\n",
              result.stats.partial_subgroups);
  std::printf("  control-signal candidates:   %zu\n",
              result.stats.control_signal_candidates);
  std::printf("  reduction trials:            %zu\n",
              result.stats.reduction_trials);
  std::printf("  subgroups unified:           %zu\n",
              result.stats.unified_subgroups);

  std::printf("\ncontrol signals used in successful unifications (%zu):\n",
              result.used_control_signals.size());
  for (netlist::NetId signal : result.used_control_signals)
    std::printf("  %s\n", nl.net(signal).name.c_str());

  std::printf("\nunified words:\n");
  const auto view = session.compact(design);
  wordrec::AssignmentMap assignment;
  for (const wordrec::UnifiedWord& word : result.unified) {
    std::printf("  %zu bits:", word.bits.size());
    for (netlist::NetId bit : word.bits)
      std::printf(" %s", nl.net(bit).name.c_str());
    std::printf("\n    assignment:");
    for (const auto& [signal, value] : word.assignment)
      std::printf(" %s=%d", nl.net(signal).name.c_str(), value ? 1 : 0);

    // Materialize the reduced circuit for this assignment — the §2.1
    // hand-off artifact for downstream tools.  A unified word's assignment
    // passed its trial, so it is feasible.
    wordrec::propagate(*view, word.assignment, assignment);
    const netlist::Netlist reduced =
        wordrec::materialize_reduction(nl, assignment);
    std::printf("\n    reduced netlist: %zu -> %zu gates (%zu nets assigned)\n",
                nl.gate_count(), reduced.gate_count(), assignment.size());
  }
  if (result.unified.empty())
    std::printf("  (none — try b08s, b12s, b15s or b18s)\n");
  return 0;
}
