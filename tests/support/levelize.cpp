#include "support/levelize.h"

#include <stdexcept>

#include "analysis/scc.h"

namespace netrev::testing {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

std::vector<GateId> levelize(const Netlist& nl, diag::Diagnostics* diags) {
  // Kahn's algorithm over combinational dependencies.  A gate depends on the
  // drivers of its inputs unless that driver is a flop (state from the
  // previous cycle) — flops themselves depend on their D logic.
  const std::size_t n = nl.gate_count();
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::vector<std::size_t>> dependents(n);

  for (std::size_t g = 0; g < n; ++g) {
    const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
    for (netlist::NetId in : gate.inputs) {
      const auto drv = nl.driver_of(in);
      if (!drv) continue;
      if (nl.gate(*drv).type == GateType::kDff) continue;
      ++pending[g];
      dependents[drv->value()].push_back(g);
    }
  }

  std::vector<std::size_t> ready;
  for (std::size_t g = 0; g < n; ++g)
    if (pending[g] == 0) ready.push_back(g);

  std::vector<GateId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t g = ready.back();
    ready.pop_back();
    order.push_back(nl.gate_id_at(g));
    for (std::size_t dep : dependents[g])
      if (--pending[dep] == 0) ready.push_back(dep);
  }
  if (order.size() != n) {
    // Leftover gates sit on (or behind) a combinational cycle; name the
    // actual loops so the user sees which nets broke levelization.
    const auto sccs = analysis::combinational_sccs(nl);
    std::string message = "levelize: combinational cycle detected";
    if (!sccs.empty())
      message += " (" + std::to_string(sccs.size()) +
                 " cycle(s); first: " + describe_cycle(nl, sccs.front()) + ")";
    if (diags != nullptr)
      for (const auto& scc : sccs)
        diags->error("levelize blocked by combinational cycle of " +
                     std::to_string(scc.gates.size()) +
                     " gate(s): " + describe_cycle(nl, scc));
    throw std::runtime_error(message);
  }
  return order;
}

}  // namespace netrev::testing
