// Pointer-netlist fanin-cone walks: the reference for the CSR walks on
// netlist::CompactView.
//
// The paper's structural matching operates on bounded-depth fanin cones
// ("fanin-cone down to four levels of logic gates", §2.1) that stop at
// sequential boundaries, and its control-signal dominance test (§2.4) needs
// unbounded backward reachability ("we remove the ones which are in the
// fanin-cones of the other nets in the set").  The analysis library walks
// only the view; tests/netlist/test_compact.cpp checks that
// CompactView::fanin_cone_nets and CompactView::in_fanin_cone visit the
// same nets, in the same order, charging a WorkBudget in the same sequence
// as these simple walks.
#pragma once

#include <cstddef>
#include <vector>

#include "common/resource_guard.h"
#include "netlist/netlist.h"

namespace netrev::testing {

// Every walk takes an optional WorkBudget and charges it one unit per
// visited net.

// Nets visited walking backward from `root` through at most `max_depth`
// levels of combinational gates.  `root` itself is included (depth 0).  The
// walk does not go through flip-flops: a flop-driven net is a cone leaf.
// Result is in deterministic BFS order, deduplicated.
std::vector<netlist::NetId> fanin_cone_nets(const netlist::Netlist& nl,
                                            netlist::NetId root,
                                            std::size_t max_depth,
                                            WorkBudget* budget = nullptr);

// True if `candidate` lies in the (unbounded, combinational) fanin cone of
// `root`, excluding root itself.
bool in_fanin_cone(const netlist::Netlist& nl, netlist::NetId root,
                   netlist::NetId candidate, WorkBudget* budget = nullptr);

}  // namespace netrev::testing
