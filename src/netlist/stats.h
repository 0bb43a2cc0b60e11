// Summary statistics over a netlist (the "Benchmark" columns of Table 1,
// plus per-gate-type histograms used by tests and the benchmark calibrator).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>

#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::netlist {

struct NetlistStats {
  std::size_t gates = 0;       // all cells including flip-flops
  std::size_t nets = 0;        // all nets including primary inputs
  std::size_t flops = 0;
  std::size_t primary_inputs = 0;
  std::size_t primary_outputs = 0;
  std::array<std::size_t, kGateTypeCount> by_type{};

  std::string to_string() const;
};

NetlistStats compute_stats(const Netlist& nl);

// Maximum and average fanin over combinational gates (0 for empty netlists).
struct FaninProfile {
  std::size_t max_fanin = 0;
  double average_fanin = 0.0;
};
FaninProfile compute_fanin_profile(const Netlist& nl);

// Logic depth: the longest combinational path, in gates, from any primary
// input or flop output to any flop input or primary output.  One pass over
// the view's comb_order(); nullopt when the view is cyclic (no path length
// is finite around a combinational loop).
std::optional<std::size_t> combinational_depth(const CompactView& view);

}  // namespace netrev::netlist
