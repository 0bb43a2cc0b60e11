#include "wordrec/assignment.h"

#include <deque>

#include "common/contracts.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// --- Reference engine: pointer netlist, deque worklist ----------------------

// Worklist-driven implication engine.
class Propagator {
 public:
  explicit Propagator(const Netlist& nl) : nl_(&nl) {}

  PropagationResult run(std::span<const std::pair<NetId, bool>> seeds) {
    map_.reset(nl_->net_count());
    for (const auto& [net, value] : seeds) {
      if (!enqueue(net, value)) return fail();
    }
    while (!queue_.empty()) {
      const NetId net = queue_.front();
      queue_.pop_front();
      if (!process(net)) return fail();
    }
    PropagationResult result;
    result.map = std::move(map_);
    result.feasible = true;
    return result;
  }

 private:
  PropagationResult fail() {
    PropagationResult result;
    result.map = std::move(map_);
    result.feasible = false;
    return result;
  }

  // Record value; push to worklist when new.  False on conflict.
  bool enqueue(NetId net, bool value) {
    const auto existing = map_.value(net);
    if (existing.has_value()) return *existing == value;
    map_.assign(net, value);
    queue_.push_back(net);
    return true;
  }

  bool process(NetId net) {
    // Forward: the net is an input of its fanout gates.  A newly-known input
    // can also complete a backward "sole unknown input" implication on a
    // gate whose output was already assigned.
    for (GateId g : nl_->net(net).fanouts)
      if (!imply_forward(g) || !imply_backward(g)) return false;
    // The net's own driver may now be further constrained (backward), and a
    // newly assigned output may determine remaining inputs.  Forward again
    // on the driver: output assignments can conflict with an already
    // fully-determined gate.
    if (const auto drv = nl_->driver_of(net))
      if (!imply_backward(*drv) || !imply_forward(*drv)) return false;
    return true;
  }

  // Derive the gate's output from its inputs where possible, and check
  // consistency with an already-assigned output.
  bool imply_forward(GateId g) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kDff) return true;  // sequential boundary

    std::optional<bool> derived;
    switch (gate.type) {
      case GateType::kConst0: derived = false; break;
      case GateType::kConst1: derived = true; break;
      case GateType::kBuf:
      case GateType::kNot: {
        const auto in = map_.value(gate.inputs[0]);
        if (in) derived = (gate.type == GateType::kBuf) ? *in : !*in;
        break;
      }
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = *controlling_value(gate.type);
        bool all_known = true;
        bool saw_controlling = false;
        for (NetId in : gate.inputs) {
          const auto v = map_.value(in);
          if (!v) {
            all_known = false;
          } else if (*v == cv) {
            saw_controlling = true;
          }
        }
        if (saw_controlling)
          derived = controlled_output(gate.type);
        else if (all_known)
          derived = !controlled_output(gate.type);
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = gate.type == GateType::kXnor;  // XNOR inverts
        bool all_known = true;
        for (NetId in : gate.inputs) {
          const auto v = map_.value(in);
          if (!v) {
            all_known = false;
            break;
          }
          parity = parity != *v;
        }
        if (all_known) derived = parity;
        break;
      }
      case GateType::kDff: break;
    }
    if (derived) return enqueue(gate.output, *derived);
    return true;
  }

  // Derive input values forced by the gate's assigned output.
  bool imply_backward(GateId g) {
    const Gate& gate = nl_->gate(g);
    if (gate.type == GateType::kDff) return true;
    const auto out = map_.value(gate.output);
    if (!out) return true;

    switch (gate.type) {
      case GateType::kConst0: return *out == false;
      case GateType::kConst1: return *out == true;
      case GateType::kBuf: return enqueue(gate.inputs[0], *out);
      case GateType::kNot: return enqueue(gate.inputs[0], !*out);
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool cv = *controlling_value(gate.type);
        const bool cout = controlled_output(gate.type);
        if (*out == !cout) {
          // Output is the non-controlled value: every input must be
          // non-controlling.
          for (NetId in : gate.inputs)
            if (!enqueue(in, !cv)) return false;
          return true;
        }
        // Output is the controlled value: at least one controlling input; if
        // exactly one input is unknown and the rest are non-controlling, it
        // must carry the controlling value.
        std::optional<NetId> sole_unknown;
        std::size_t unknown_count = 0;
        bool saw_controlling = false;
        for (NetId in : gate.inputs) {
          const auto v = map_.value(in);
          if (!v) {
            ++unknown_count;
            sole_unknown = in;
          } else if (*v == cv) {
            saw_controlling = true;
          }
        }
        if (saw_controlling) return true;
        if (unknown_count == 0) return false;  // conflict
        if (unknown_count == 1) return enqueue(*sole_unknown, cv);
        return true;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        std::optional<NetId> sole_unknown;
        std::size_t unknown_count = 0;
        bool parity = gate.type == GateType::kXnor;
        for (NetId in : gate.inputs) {
          const auto v = map_.value(in);
          if (!v) {
            ++unknown_count;
            sole_unknown = in;
          } else {
            parity = parity != *v;
          }
        }
        if (unknown_count == 1)
          return enqueue(*sole_unknown, parity != *out);
        if (unknown_count == 0) return parity == *out;
        return true;
      }
      case GateType::kDff: return true;
    }
    return true;
  }

  const Netlist* nl_;
  AssignmentMap map_;
  std::deque<NetId> queue_;
};

// --- CSR engine: CompactView arrays, entry list as worklist -----------------
//
// The same implication rules as Propagator, written against the view's flat
// arrays.  Values are read as 0/1, or kUnknown for an unassigned net; each
// AND-family gate passes its controlling value `cv` and controlled output
// `cout` (AND 0/0, NAND 0/1, OR 1/1, NOR 1/0).
class CsrPropagator {
 public:
  CsrPropagator(const CompactView& view, AssignmentMap& map)
      : view_(view), map_(map) {}

  bool run(std::span<const std::pair<NetId, bool>> seeds) {
    map_.reset(view_.net_count());
    return extend(seeds);
  }

  // Assigns the seeds on top of a closed map and propagates them.
  bool extend(std::span<const std::pair<NetId, bool>> seeds) {
    std::size_t head = map_.size();
    for (const auto& [net, value] : seeds)
      if (!map_.assign(net, value)) return false;
    // FIFO: the entries past `head` are the assigned nets not yet processed.
    for (; head < map_.size(); ++head)
      if (!process(map_.entries()[head].first.value())) return false;
    return true;
  }

 private:
  using Inputs = std::span<const std::uint32_t>;
  static constexpr int kUnknown = -1;

  int value(std::uint32_t net) const {
    const auto v = map_.value(NetId(net));
    return v ? static_cast<int>(*v) : kUnknown;
  }

  // Records the value (queued when new); false on conflict.
  bool enqueue(std::uint32_t net, bool v) { return map_.assign(NetId(net), v); }

  bool process(std::uint32_t net) {
    for (std::uint32_t g : view_.fanout(net))
      if (!forward(g) || !backward(g)) return false;
    const std::uint32_t driver = view_.driver(net);
    if (driver == CompactView::kNoGate) return true;
    return backward(driver) && forward(driver);
  }

  // Derives the gate's output from its inputs where they determine it.
  bool forward(std::uint32_t g) {
    const Inputs inputs = view_.fanin(g);
    const std::uint32_t out = view_.gate_output(g);
    switch (view_.gate_type(g)) {
      case GateType::kDff: return true;
      case GateType::kConst0: return enqueue(out, false);
      case GateType::kConst1: return enqueue(out, true);
      case GateType::kBuf: return forward_unary(inputs, out, false);
      case GateType::kNot: return forward_unary(inputs, out, true);
      case GateType::kAnd: return forward_controlled(inputs, out, 0, false);
      case GateType::kNand: return forward_controlled(inputs, out, 0, true);
      case GateType::kOr: return forward_controlled(inputs, out, 1, true);
      case GateType::kNor: return forward_controlled(inputs, out, 1, false);
      case GateType::kXor: return forward_parity(inputs, out, false);
      case GateType::kXnor: return forward_parity(inputs, out, true);
    }
    return true;
  }

  bool forward_unary(Inputs inputs, std::uint32_t out, bool invert) {
    const int in = value(inputs[0]);
    if (in == kUnknown) return true;
    return enqueue(out, (in != 0) != invert);
  }

  bool forward_controlled(Inputs inputs, std::uint32_t out, int cv,
                          bool cout) {
    bool all_known = true;
    for (std::uint32_t in : inputs) {
      const int v = value(in);
      if (v == cv) return enqueue(out, cout);
      if (v == kUnknown) all_known = false;
    }
    return all_known ? enqueue(out, !cout) : true;
  }

  bool forward_parity(Inputs inputs, std::uint32_t out, bool parity) {
    for (std::uint32_t in : inputs) {
      const int v = value(in);
      if (v == kUnknown) return true;
      parity = parity != (v != 0);
    }
    return enqueue(out, parity);
  }

  // Derives the input values the gate's assigned output forces.
  bool backward(std::uint32_t g) {
    const GateType type = view_.gate_type(g);
    if (type == GateType::kDff) return true;
    const int out = value(view_.gate_output(g));
    if (out == kUnknown) return true;
    const Inputs inputs = view_.fanin(g);
    switch (type) {
      case GateType::kDff: return true;
      case GateType::kConst0: return out == 0;
      case GateType::kConst1: return out == 1;
      case GateType::kBuf: return enqueue(inputs[0], out != 0);
      case GateType::kNot: return enqueue(inputs[0], out == 0);
      case GateType::kAnd: return backward_controlled(inputs, out, 0, false);
      case GateType::kNand: return backward_controlled(inputs, out, 0, true);
      case GateType::kOr: return backward_controlled(inputs, out, 1, true);
      case GateType::kNor: return backward_controlled(inputs, out, 1, false);
      case GateType::kXor: return backward_parity(inputs, out, false);
      case GateType::kXnor: return backward_parity(inputs, out, true);
    }
    return true;
  }

  bool backward_controlled(Inputs inputs, int out, int cv, bool cout) {
    if ((out != 0) != cout) {
      // Non-controlled output: every input is non-controlling.
      for (std::uint32_t in : inputs)
        if (!enqueue(in, cv == 0)) return false;
      return true;
    }
    // Controlled output: a sole unknown input among non-controlling ones
    // must carry the controlling value.
    std::uint32_t sole_unknown = 0;
    std::size_t unknown_count = 0;
    for (std::uint32_t in : inputs) {
      const int v = value(in);
      if (v == cv) return true;
      if (v == kUnknown) {
        ++unknown_count;
        sole_unknown = in;
      }
    }
    if (unknown_count == 0) return false;  // conflict
    if (unknown_count == 1) return enqueue(sole_unknown, cv != 0);
    return true;
  }

  bool backward_parity(Inputs inputs, int out, bool parity) {
    std::uint32_t sole_unknown = 0;
    std::size_t unknown_count = 0;
    for (std::uint32_t in : inputs) {
      const int v = value(in);
      if (v == kUnknown) {
        ++unknown_count;
        sole_unknown = in;
      } else {
        parity = parity != (v != 0);
      }
    }
    if (unknown_count == 1) return enqueue(sole_unknown, parity != (out != 0));
    if (unknown_count == 0) return parity == (out != 0);
    return true;
  }

  const CompactView& view_;
  AssignmentMap& map_;
};

}  // namespace

bool propagate(const CompactView& view,
               std::span<const std::pair<NetId, bool>> seeds,
               AssignmentMap& out) {
  return CsrPropagator(view, out).run(seeds);
}

bool propagate_more(const CompactView& view,
                    std::span<const std::pair<NetId, bool>> seeds,
                    AssignmentMap& map) {
  return CsrPropagator(view, map).extend(seeds);
}

void one_step_implications(const CompactView& view,
                           std::pair<NetId, bool> literal,
                           std::vector<std::pair<NetId, bool>>& out) {
  const auto [net, value] = literal;
  for (std::uint32_t g : view.fanout(net.value())) {
    const GateType type = view.gate_type(g);
    const NetId output(view.gate_output(g));
    if (type == GateType::kBuf || type == GateType::kNot) {
      out.emplace_back(output, value != (type == GateType::kNot));
    } else if (const auto cv = controlling_value(type); cv && *cv == value) {
      out.emplace_back(output, controlled_output(type));
    }
  }
  const std::uint32_t driver = view.driver(net.value());
  if (driver == CompactView::kNoGate) return;
  const GateType type = view.gate_type(driver);
  const auto inputs = view.fanin(driver);
  if (type == GateType::kBuf || type == GateType::kNot) {
    out.emplace_back(NetId(inputs[0]), value != (type == GateType::kNot));
  } else if (const auto cv = controlling_value(type);
             cv && value != controlled_output(type)) {
    for (std::uint32_t in : inputs) out.emplace_back(NetId(in), !*cv);
  }
}

PropagationResult propagate(const Netlist& nl,
                            std::span<const std::pair<NetId, bool>> seeds) {
  return Propagator(nl).run(seeds);
}

}  // namespace netrev::wordrec
