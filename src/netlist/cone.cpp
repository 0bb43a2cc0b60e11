#include "netlist/cone.h"

#include <deque>
#include <unordered_set>

namespace netrev::netlist {

namespace {

// True if the walk may expand through this net's driver.
bool expandable(const Netlist& nl, NetId net) {
  const auto drv = nl.driver_of(net);
  return drv.has_value() && nl.gate(*drv).type != GateType::kDff;
}

void charge(WorkBudget* budget) {
  if (budget != nullptr) budget->charge();
}

}  // namespace

std::vector<NetId> fanin_cone_nets(const Netlist& nl, NetId root,
                                   std::size_t max_depth, WorkBudget* budget) {
  std::vector<NetId> order;
  std::unordered_set<NetId> seen;
  std::deque<std::pair<NetId, std::size_t>> queue{{root, 0}};
  seen.insert(root);
  while (!queue.empty()) {
    const auto [net, depth] = queue.front();
    queue.pop_front();
    charge(budget);
    order.push_back(net);
    if (depth >= max_depth || !expandable(nl, net)) continue;
    const Gate& gate = nl.gate(*nl.driver_of(net));
    for (NetId in : gate.inputs)
      if (seen.insert(in).second) queue.emplace_back(in, depth + 1);
  }
  return order;
}

bool in_fanin_cone(const Netlist& nl, NetId root, NetId candidate,
                   WorkBudget* budget) {
  if (root == candidate) return false;
  // Targeted DFS with early exit instead of materializing the full cone.
  std::unordered_set<NetId> seen;
  std::vector<NetId> stack;
  const auto push_inputs = [&](NetId net) {
    if (!expandable(nl, net)) return;
    const Gate& gate = nl.gate(*nl.driver_of(net));
    for (NetId in : gate.inputs)
      if (seen.insert(in).second) stack.push_back(in);
  };
  push_inputs(root);
  while (!stack.empty()) {
    const NetId net = stack.back();
    stack.pop_back();
    charge(budget);
    if (net == candidate) return true;
    push_inputs(net);
  }
  return false;
}

std::vector<NetId> cone_leaves(const Netlist& nl, NetId root,
                               std::size_t max_depth, WorkBudget* budget) {
  std::vector<NetId> leaves;
  std::unordered_set<NetId> seen{root};
  std::deque<std::pair<NetId, std::size_t>> queue{{root, 0}};
  while (!queue.empty()) {
    const auto [net, depth] = queue.front();
    queue.pop_front();
    charge(budget);
    if (depth >= max_depth || !expandable(nl, net)) {
      leaves.push_back(net);
      continue;
    }
    const Gate& gate = nl.gate(*nl.driver_of(net));
    for (NetId in : gate.inputs)
      if (seen.insert(in).second) queue.emplace_back(in, depth + 1);
  }
  return leaves;
}

}  // namespace netrev::netlist
