#include "wordrec/reduce.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/contracts.h"
#include "common/thread_pool.h"
#include "perf/profile.h"
#include "wordrec/collapse.h"

namespace netrev::wordrec {

using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// Gates whose output survives and the live inputs they keep.
struct SurvivingGate {
  GateId id;
  GateType effective_type = GateType::kBuf;
  std::vector<NetId> live_inputs;  // ids in the ORIGINAL netlist
};

// Survivor decision for one gate: nullopt if the assignment removed it.
// Pure function of (netlist, assignment, gate) — safe from pool workers.
std::optional<SurvivingGate> plan_one(const Netlist& nl,
                                      const AssignmentMap& assignment,
                                      GateId g) {
  const netlist::Gate& gate = nl.gate(g);
  if (assignment.contains(gate.output)) return std::nullopt;  // gate removed

  SurvivingGate survivor;
  survivor.id = g;

  if (gate.type == GateType::kDff) {
    // A flop always survives; a constant D input is preserved through a
    // fresh constant driver (added by the caller below).
    survivor.effective_type = GateType::kDff;
    survivor.live_inputs = gate.inputs;
    return survivor;
  }
  if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
    // Pre-existing constant drivers have no inputs; they survive as-is
    // unless the assignment folded them away (handled above).
    survivor.effective_type = gate.type;
    return survivor;
  }

  bool dropped_parity = false;
  for (NetId in : gate.inputs) {
    const auto v = assignment.value(in);
    if (!v) {
      survivor.live_inputs.push_back(in);
      continue;
    }
    if (const auto cv = controlling_value(gate.type))
      NETREV_ASSERT(*v != *cv &&
                    "controlling input with unassigned output violates "
                    "propagation closure");
    dropped_parity = dropped_parity != *v;
  }
  NETREV_ASSERT(!survivor.live_inputs.empty() &&
                "all-constant gate with unassigned output violates "
                "propagation closure");
  survivor.effective_type =
      (survivor.live_inputs.size() == gate.inputs.size())
          ? gate.type
          : collapsed_type(gate.type, survivor.live_inputs.size(),
                           dropped_parity);
  return survivor;
}

std::vector<SurvivingGate> plan_survivors(const Netlist& nl,
                                          const AssignmentMap& assignment) {
  // Per-gate decisions are independent; plan them on the pool into
  // index-addressed slots, then compact in file order so the surviving list
  // (and every downstream net id) is identical at any job count.
  const std::vector<GateId> order = nl.gates_in_file_order();
  std::vector<std::optional<SurvivingGate>> planned(order.size());
  parallel_for(
      0, order.size(),
      [&](std::size_t i) { planned[i] = plan_one(nl, assignment, order[i]); },
      /*grain=*/64);

  std::vector<SurvivingGate> survivors;
  survivors.reserve(order.size());
  for (auto& plan : planned)
    if (plan) survivors.push_back(std::move(*plan));
  return survivors;
}

// Iteratively drop combinational survivors whose outputs feed nothing and
// are not primary outputs (the floating remains of removed control logic —
// Figure 1's shared control cone vanishing).
void sweep_dead(const Netlist& nl, std::vector<SurvivingGate>& survivors) {
  std::unordered_map<NetId, std::size_t> fanout_count;
  for (const auto& s : survivors)
    for (NetId in : s.live_inputs) ++fanout_count[in];
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = survivors.begin(); it != survivors.end();) {
      const NetId out = nl.gate(it->id).output;
      const bool dead = nl.gate(it->id).type != GateType::kDff &&
                        fanout_count[out] == 0 &&
                        !nl.net(out).is_primary_output;
      if (!dead) {
        ++it;
        continue;
      }
      for (NetId in : it->live_inputs) --fanout_count[in];
      it = survivors.erase(it);
      changed = true;
    }
  }
}

}  // namespace

Netlist materialize_reduction(const Netlist& nl,
                              const AssignmentMap& assignment) {
  std::vector<SurvivingGate> survivors = plan_survivors(nl, assignment);
  sweep_dead(nl, survivors);

  Netlist reduced(nl.name() + "_reduced");

  // Nets referenced by surviving gates, plus surviving primary ports.
  std::unordered_map<NetId, NetId> remap;
  const auto map_net = [&](NetId original) {
    const auto it = remap.find(original);
    if (it != remap.end()) return it->second;
    const NetId fresh = reduced.add_net(nl.net(original).name);
    remap.emplace(original, fresh);
    return fresh;
  };

  // Pre-create primary inputs that were not assigned away, preserving
  // declaration order.
  for (NetId pi : nl.primary_inputs())
    if (!assignment.contains(pi)) reduced.mark_primary_input(map_net(pi));

  std::size_t const_counter = 0;
  for (const auto& survivor : survivors) {
    const netlist::Gate& gate = nl.gate(survivor.id);
    const NetId out = map_net(gate.output);

    if (gate.type == GateType::kDff) {
      const NetId d_original = gate.inputs[0];
      NetId d_new;
      if (const auto v = assignment.value(d_original)) {
        // Constant D: keep the flop fed by a fresh constant driver.
        const NetId const_net = reduced.add_net(
            nl.net(d_original).name + "$const" + std::to_string(const_counter++));
        reduced.add_gate(*v ? GateType::kConst1 : GateType::kConst0, const_net,
                         {});
        d_new = const_net;
      } else {
        d_new = map_net(d_original);
      }
      reduced.add_gate(GateType::kDff, out, {d_new});
      continue;
    }

    std::vector<NetId> inputs;
    inputs.reserve(survivor.live_inputs.size());
    for (NetId in : survivor.live_inputs) inputs.push_back(map_net(in));
    reduced.add_gate(survivor.effective_type, out, inputs);
  }

  // Surviving nets without drivers in the reduced design are free inputs
  // (cut points created by removed logic).
  for (std::size_t i = 0; i < reduced.net_count(); ++i) {
    const NetId id = reduced.net_id_at(i);
    if (!reduced.net(id).driver.is_valid() && !reduced.net(id).is_primary_input)
      reduced.mark_primary_input(id);
  }
  for (NetId po : nl.primary_outputs())
    if (!assignment.contains(po) && remap.contains(po))
      reduced.mark_primary_output(remap.at(po));
  return reduced;
}

}  // namespace netrev::wordrec
