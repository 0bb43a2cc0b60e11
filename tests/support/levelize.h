// Topological ordering of the combinational portion of a netlist: the
// reference for CompactView's levelization (tests/netlist/test_compact.cpp
// checks comb_order() and flop_gates() against it) and the scalar
// Simulator's schedule.  Flip-flop outputs and primary inputs are treated
// as sources; the order contains every gate (flops included, placed after
// their D-input logic so a single pass can sample next-state values).
#pragma once

#include <vector>

#include "common/diagnostics.h"
#include "netlist/netlist.h"

namespace netrev::testing {

// Returns all gates in a valid evaluation order.  Throws std::runtime_error
// if the combinational logic is cyclic; the message names the member nets of
// the first cycle (via the analysis engine's SCC pass), and when `diags` is
// given every cycle is also reported there as an error before throwing.
std::vector<netlist::GateId> levelize(const netlist::Netlist& nl,
                                      diag::Diagnostics* diags = nullptr);

}  // namespace netrev::testing
