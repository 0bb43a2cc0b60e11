#include "netlist/stats.h"

#include <algorithm>
#include <vector>

#include "common/text.h"

namespace netrev::netlist {

std::string NetlistStats::to_string() const {
  std::string out;
  out += "gates=" + std::to_string(gates);
  out += " nets=" + std::to_string(nets);
  out += " flops=" + std::to_string(flops);
  out += " PIs=" + std::to_string(primary_inputs);
  out += " POs=" + std::to_string(primary_outputs);
  for (int i = 0; i < kGateTypeCount; ++i) {
    if (by_type[static_cast<std::size_t>(i)] == 0) continue;
    out += ' ';
    out += gate_type_name(static_cast<GateType>(i));
    out += '=';
    out += std::to_string(by_type[static_cast<std::size_t>(i)]);
  }
  return out;
}

NetlistStats compute_stats(const Netlist& nl) {
  NetlistStats stats;
  stats.gates = nl.gate_count();
  stats.nets = nl.net_count();
  for (std::size_t i = 0; i < nl.gate_count(); ++i) {
    const Gate& g = nl.gate(nl.gate_id_at(i));
    ++stats.by_type[static_cast<std::size_t>(g.type)];
    if (g.type == GateType::kDff) ++stats.flops;
  }
  for (std::size_t i = 0; i < nl.net_count(); ++i) {
    const Net& n = nl.net(nl.net_id_at(i));
    if (n.is_primary_input) ++stats.primary_inputs;
    if (n.is_primary_output) ++stats.primary_outputs;
  }
  return stats;
}

FaninProfile compute_fanin_profile(const Netlist& nl) {
  FaninProfile profile;
  std::size_t total = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < nl.gate_count(); ++i) {
    const Gate& g = nl.gate(nl.gate_id_at(i));
    if (g.type == GateType::kDff) continue;
    profile.max_fanin = std::max(profile.max_fanin, g.inputs.size());
    total += g.inputs.size();
    ++count;
  }
  if (count > 0) profile.average_fanin = static_cast<double>(total) / static_cast<double>(count);
  return profile;
}

std::optional<std::size_t> combinational_depth(const CompactView& view) {
  if (!view.acyclic()) return std::nullopt;
  // Depth of each gate's output; comb_order() visits every gate after the
  // combinational drivers of its inputs, and flops (never visited) stay 0.
  std::vector<std::size_t> depth(view.gate_count(), 0);
  std::size_t best = 0;
  for (std::uint32_t g : view.comb_order()) {
    std::size_t self = 1;
    for (std::uint32_t in : view.fanin(g)) {
      const std::uint32_t driver = view.driver(in);
      if (driver != CompactView::kNoGate)
        self = std::max(self, depth[driver] + 1);
    }
    depth[g] = self;
    best = std::max(best, self);
  }
  return best;
}

}  // namespace netrev::netlist
