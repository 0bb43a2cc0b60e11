// Combinational strongly connected components.
//
// The dependency graph is the one CompactView's levelization orders: a gate
// depends on the drivers of its inputs unless that driver is a flip-flop
// (whose output is previous-cycle state).  Any nontrivial SCC of this graph
// — more than one gate, or a single gate reading its own output — is a
// combinational cycle that breaks levelization, simulation, and cone
// hashing.  The comb-cycle lint rule, require_acyclic's error, and the
// permissive cycle-breaking repair all consume this one implementation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace netrev::analysis {

struct CombinationalScc {
  // Member gates in ascending id (= file) order.
  std::vector<netlist::GateId> gates;
  // The nets those gates drive, in the same order.
  std::vector<netlist::NetId> nets;
};

// All nontrivial combinational SCCs, deterministic order (by smallest member
// gate id).  Empty result == the combinational logic is acyclic.
std::vector<CombinationalScc> combinational_sccs(const netlist::Netlist& nl);

// "x -> y -> z -> x" over the SCC's driven net names; long cycles elide the
// middle ("x -> y -> ... -> x", `max_names` names shown).
std::string describe_cycle(const netlist::Netlist& nl,
                           const CombinationalScc& scc,
                           std::size_t max_names = 8);

}  // namespace netrev::analysis
