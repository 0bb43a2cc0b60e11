#include "netlist/compact.h"

#include <algorithm>

namespace netrev::netlist {

namespace {

// A walk's budget charges, one unit per visited net, handed to the shared
// WorkBudget in strides: every WorkBudget::kPollStride visits and once more
// before the walk returns.  Pool threads walking at once then touch the
// budget's atomic once per stride instead of once per net.  Totals stay
// exact, a walk past the limit still throws (at its next stride or at its
// end), and the attached checkpoint is still polled at least once per
// stride.
class StridedCharge {
 public:
  explicit StridedCharge(WorkBudget* budget) : budget_(budget) {}

  void visit() {
    if (budget_ != nullptr && ++pending_ == WorkBudget::kPollStride) flush();
  }

  void flush() {
    if (pending_ == 0) return;
    const std::size_t units = pending_;
    pending_ = 0;
    budget_->charge(units);
  }

 private:
  WorkBudget* budget_;
  std::size_t pending_ = 0;
};

}  // namespace

ConeScratch& local_scratch() {
  static thread_local ConeScratch scratch;
  return scratch;
}

CompactView CompactView::build(const Netlist& nl) {
  CompactView view;
  const std::uint32_t nets = static_cast<std::uint32_t>(nl.net_count());
  const std::uint32_t gates = static_cast<std::uint32_t>(nl.gate_count());

  // --- gates: types, outputs, CSR fanin -----------------------------------
  view.gate_type_.resize(gates);
  view.gate_output_.resize(gates);
  view.fanin_offset_.resize(gates + 1, 0);
  std::size_t fanin_total = 0;
  for (std::uint32_t g = 0; g < gates; ++g) {
    const Gate& gate = nl.gate(GateId(g));
    view.gate_type_[g] = gate.type;
    view.gate_output_[g] = gate.output.value();
    view.fanin_offset_[g] = static_cast<std::uint32_t>(fanin_total);
    fanin_total += gate.inputs.size();
  }
  view.fanin_offset_[gates] = static_cast<std::uint32_t>(fanin_total);
  view.fanin_.reserve(fanin_total);
  for (std::uint32_t g = 0; g < gates; ++g)
    for (NetId in : nl.gate(GateId(g)).inputs)
      view.fanin_.push_back(in.value());

  // --- nets: driver, CSR fanout, flags -------------------------------------
  view.net_driver_.resize(nets);
  view.fanout_offset_.resize(nets + 1, 0);
  view.net_flags_.resize(nets, 0);
  std::size_t fanout_total = 0;
  for (std::uint32_t n = 0; n < nets; ++n) {
    const Net& net = nl.net(NetId(n));
    view.net_driver_[n] = net.driver.is_valid() ? net.driver.value() : kNoGate;
    view.fanout_offset_[n] = static_cast<std::uint32_t>(fanout_total);
    fanout_total += net.fanouts.size();
    std::uint8_t flags = 0;
    if (net.is_primary_input) flags |= kPrimaryInput;
    if (net.is_primary_output) flags |= kPrimaryOutput;
    view.net_flags_[n] = flags;
  }
  view.fanout_offset_[nets] = static_cast<std::uint32_t>(fanout_total);
  view.fanout_.reserve(fanout_total);
  for (std::uint32_t n = 0; n < nets; ++n)
    for (GateId reader : nl.net(NetId(n)).fanouts)
      view.fanout_.push_back(reader.value());

  // Derived flags off the flattened arrays.
  std::uint32_t flops = 0;
  for (std::uint32_t g = 0; g < gates; ++g) {
    if (view.gate_type_[g] != GateType::kDff) continue;
    ++flops;
    view.net_flags_[view.gate_output_[g]] |= kFlopOutput;
    for (std::uint32_t in : view.fanin(g)) view.net_flags_[in] |= kFeedsFlop;
  }
  for (std::uint32_t n = 0; n < nets; ++n) {
    if (view.is_primary_input(n)) view.primary_inputs_.push_back(n);
    if (view.is_primary_output(n)) view.primary_outputs_.push_back(n);
  }

  // --- levelization ---------------------------------------------------------
  // Kahn's algorithm; a gate depends on the combinational drivers of its
  // inputs, flop drivers break the dependency (previous-cycle state).  The
  // dependents list is built in gate order and consumed with a LIFO ready
  // stack; that emission order fixes flop_gates(), which the sampler's
  // stimulus draws in, so it must not change (tests/support/levelize.h is
  // the reference it is checked against).
  std::vector<std::uint32_t> pending(gates, 0);
  std::vector<std::uint32_t> dep_offset(gates + 1, 0);
  for (std::uint32_t g = 0; g < gates; ++g) {
    for (std::uint32_t in : view.fanin(g)) {
      const std::uint32_t drv = view.net_driver_[in];
      if (drv == kNoGate || view.gate_type_[drv] == GateType::kDff) continue;
      ++pending[g];
      ++dep_offset[drv + 1];
    }
  }
  for (std::uint32_t g = 0; g < gates; ++g) dep_offset[g + 1] += dep_offset[g];
  std::vector<std::uint32_t> dependents(dep_offset[gates]);
  {
    std::vector<std::uint32_t> cursor(dep_offset.begin(),
                                      dep_offset.end() - 1);
    for (std::uint32_t g = 0; g < gates; ++g) {
      for (std::uint32_t in : view.fanin(g)) {
        const std::uint32_t drv = view.net_driver_[in];
        if (drv == kNoGate || view.gate_type_[drv] == GateType::kDff) continue;
        dependents[cursor[drv]++] = g;
      }
    }
  }

  std::vector<std::uint32_t> ready;
  for (std::uint32_t g = 0; g < gates; ++g)
    if (pending[g] == 0) ready.push_back(g);
  view.comb_order_.reserve(gates - flops);
  view.flop_gates_.reserve(flops);
  while (!ready.empty()) {
    const std::uint32_t g = ready.back();
    ready.pop_back();
    if (view.gate_type_[g] == GateType::kDff)
      view.flop_gates_.push_back(g);
    else
      view.comb_order_.push_back(g);
    for (std::uint32_t d = dep_offset[g]; d < dep_offset[g + 1]; ++d)
      if (--pending[dependents[d]] == 0) ready.push_back(dependents[d]);
  }
  if (view.comb_order_.size() + view.flop_gates_.size() != gates) {
    view.acyclic_ = false;
    view.comb_order_.clear();
    view.flop_gates_.clear();
  }
  return view;
}

std::size_t CompactView::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(gate_type_) + bytes(gate_output_) + bytes(fanin_offset_) +
         bytes(fanin_) + bytes(net_driver_) + bytes(fanout_offset_) +
         bytes(fanout_) + bytes(net_flags_) + bytes(comb_order_) +
         bytes(flop_gates_) + bytes(primary_inputs_) + bytes(primary_outputs_);
}

std::vector<std::uint32_t> CompactView::fanin_cone_nets(
    std::uint32_t root, std::size_t max_depth, ConeScratch& scratch,
    WorkBudget* budget) const {
  // BFS identical to netlist::fanin_cone_nets: the worklist stores
  // (net, depth) pairs consumed front-to-back; depth fits the high half
  // because cones never go deeper than the gate count.
  std::vector<std::uint32_t> order;
  scratch.begin(net_count());
  std::vector<std::uint32_t>& queue = scratch.worklist();
  queue.clear();
  std::vector<std::uint32_t> depths;
  StridedCharge charge(budget);
  queue.push_back(root);
  depths.push_back(0);
  scratch.mark(root);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t net = queue[head];
    const std::size_t depth = depths[head];
    charge.visit();
    order.push_back(net);
    if (depth >= max_depth || !expandable(net)) continue;
    for (std::uint32_t in : fanin(net_driver_[net])) {
      if (!scratch.mark(in)) continue;
      queue.push_back(in);
      depths.push_back(static_cast<std::uint32_t>(depth + 1));
    }
  }
  charge.flush();
  return order;
}

bool CompactView::in_fanin_cone(std::uint32_t root, std::uint32_t candidate,
                                ConeScratch& scratch,
                                WorkBudget* budget) const {
  if (root == candidate) return false;
  // Targeted DFS with early exit, mirroring netlist::in_fanin_cone: the
  // root's inputs seed the stack (root itself unmarked and uncharged), one
  // budget unit per popped net, the last stride charged on either exit.
  scratch.begin(net_count());
  std::vector<std::uint32_t>& stack = scratch.worklist();
  stack.clear();
  const auto push_inputs = [&](std::uint32_t net) {
    if (!expandable(net)) return;
    for (std::uint32_t in : fanin(net_driver_[net]))
      if (scratch.mark(in)) stack.push_back(in);
  };
  StridedCharge charge(budget);
  push_inputs(root);
  while (!stack.empty()) {
    const std::uint32_t net = stack.back();
    stack.pop_back();
    charge.visit();
    if (net == candidate) {
      charge.flush();
      return true;
    }
    push_inputs(net);
  }
  charge.flush();
  return false;
}

}  // namespace netrev::netlist
