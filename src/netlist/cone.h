// Fanin-cone traversals.
//
// The paper's structural matching operates on bounded-depth fanin cones
// ("fanin-cone down to four levels of logic gates", §2.1) that stop at
// sequential boundaries, and its control-signal dominance test (§2.4) needs
// unbounded backward reachability ("we remove the ones which are in the
// fanin-cones of the other nets in the set").
#pragma once

#include <cstddef>
#include <vector>

#include "common/resource_guard.h"
#include "netlist/netlist.h"

namespace netrev::netlist {

// Every traversal takes an optional WorkBudget and charges it one unit per
// visited net; a limited budget turns a pathologically deep/wide cone into a
// clean ResourceLimitError instead of an unbounded walk.

// Nets visited walking backward from `root` through at most `max_depth`
// levels of combinational gates.  `root` itself is included (depth 0).  The
// walk does not go through flip-flops: a flop-driven net is a cone leaf.
// Result is in deterministic BFS order, deduplicated.
std::vector<NetId> fanin_cone_nets(const Netlist& nl, NetId root,
                                   std::size_t max_depth,
                                   WorkBudget* budget = nullptr);

// True if `candidate` lies in the (unbounded, combinational) fanin cone of
// `root`, excluding root itself.
bool in_fanin_cone(const Netlist& nl, NetId root, NetId candidate,
                   WorkBudget* budget = nullptr);

// The nets at the boundary of a bounded cone: flop outputs, primary inputs,
// and nets whose depth equals max_depth (i.e. left unexpanded).
std::vector<NetId> cone_leaves(const Netlist& nl, NetId root,
                               std::size_t max_depth,
                               WorkBudget* budget = nullptr);

}  // namespace netrev::netlist
