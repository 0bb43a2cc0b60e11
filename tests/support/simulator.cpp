#include "support/simulator.h"

#include <algorithm>

#include "common/contracts.h"
#include "support/levelize.h"

namespace netrev::testing {

using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

bool eval_gate(GateType type, std::span<const bool> inputs) {
  const auto n = inputs.size();
  NETREV_REQUIRE(static_cast<int>(n) >= netlist::min_arity(type) &&
                 static_cast<int>(n) <= netlist::max_arity(type));
  switch (type) {
    case GateType::kBuf:
    case GateType::kDff: return inputs[0];
    case GateType::kNot: return !inputs[0];
    case GateType::kConst0: return false;
    case GateType::kConst1: return true;
    case GateType::kAnd:
    case GateType::kNand: {
      bool acc = true;
      for (bool v : inputs) acc = acc && v;
      return type == GateType::kAnd ? acc : !acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool acc = false;
      for (bool v : inputs) acc = acc || v;
      return type == GateType::kOr ? acc : !acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool acc = false;
      for (bool v : inputs) acc = acc != v;
      return type == GateType::kXor ? acc : !acc;
    }
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return false;
}

Simulator::Simulator(const Netlist& nl) : nl_(&nl) {
  for (GateId g : levelize(nl)) {
    if (nl.gate(g).type == GateType::kDff)
      flops_.push_back(g);
    else
      order_.push_back(g);
  }
  values_.assign(nl.net_count(), 0);
}

void Simulator::set_input(NetId net, bool value) {
  NETREV_REQUIRE(nl_->net(net).is_primary_input);
  values_[net.value()] = value ? 1 : 0;
}

void Simulator::set_state(NetId q_net, bool value) {
  NETREV_REQUIRE(nl_->is_flop_output(q_net));
  values_[q_net.value()] = value ? 1 : 0;
}

void Simulator::randomize_inputs(Rng& rng) {
  for (NetId net : nl_->primary_inputs())
    values_[net.value()] = rng.next_bool() ? 1 : 0;
}

void Simulator::randomize_state(Rng& rng) {
  for (GateId g : flops_)
    values_[nl_->gate(g).output.value()] = rng.next_bool() ? 1 : 0;
}

void Simulator::eval() {
  for (GateId g : order_) {
    const netlist::Gate& gate = nl_->gate(g);
    if (scratch_capacity_ < gate.inputs.size()) {
      scratch_capacity_ = std::max<std::size_t>(16, gate.inputs.size() * 2);
      scratch_ = std::make_unique<bool[]>(scratch_capacity_);
    }
    for (std::size_t i = 0; i < gate.inputs.size(); ++i)
      scratch_[i] = values_[gate.inputs[i].value()] != 0;
    values_[gate.output.value()] =
        eval_gate(gate.type,
                  std::span<const bool>(scratch_.get(), gate.inputs.size()))
            ? 1
            : 0;
  }
}

void Simulator::step() {
  // Sample all D inputs first so flop-to-flop paths use pre-edge state.
  std::vector<std::uint8_t> next;
  next.reserve(flops_.size());
  for (GateId g : flops_) next.push_back(values_[nl_->gate(g).inputs[0].value()]);
  for (std::size_t i = 0; i < flops_.size(); ++i)
    values_[nl_->gate(flops_[i]).output.value()] = next[i];
  eval();
}

bool Simulator::value(NetId net) const {
  NETREV_REQUIRE(net.value() < values_.size());
  return values_[net.value()] != 0;
}

}  // namespace netrev::testing
