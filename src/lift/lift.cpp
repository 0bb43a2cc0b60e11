#include "lift/lift.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_set>

#include "analysis/domains.h"
#include "exec/chaos.h"
#include "lift/verify.h"
#include "netlist/gate_type.h"
#include "perf/profile.h"

namespace netrev::lift {

namespace {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// Builds signals on demand and deduplicates them by exact bit vector, so an
// operand that coincides with an identified word references that word.
class SignalTable {
 public:
  explicit SignalTable(LiftResult& model) : model_(&model) {}

  std::size_t add_word(std::vector<NetId> bits, std::string name) {
    return intern(std::move(bits), std::move(name), SignalKind::kWord);
  }

  std::size_t add_operand(std::vector<NetId> bits, std::string name) {
    return intern(std::move(bits), std::move(name), SignalKind::kOperand);
  }

 private:
  std::size_t intern(std::vector<NetId> bits, std::string name,
                     SignalKind kind) {
    const auto it = by_bits_.find(bits);
    if (it != by_bits_.end()) return it->second;
    const std::size_t index = model_->signals.size();
    model_->signals.push_back(Signal{std::move(name), kind, bits});
    by_bits_.emplace(std::move(bits), index);
    return index;
  }

  LiftResult* model_;
  std::map<std::vector<NetId>, std::size_t> by_bits_;
};

// Lowercase operator name for a per-bit gate type.
const char* bitwise_name(GateType type) {
  switch (type) {
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kNand: return "nand";
    case GateType::kOr: return "or";
    case GateType::kNor: return "nor";
    case GateType::kXor: return "xor";
    case GateType::kXnor: return "xnor";
    default: return "?";
  }
}

// The driver gate of every bit, or nullopt when any bit is undriven (a
// primary input / dangling net cannot anchor a typed operator).
std::optional<std::vector<GateId>> bit_drivers(const Netlist& nl,
                                               const Signal& word) {
  std::vector<GateId> drivers;
  drivers.reserve(word.width());
  for (NetId bit : word.bits) {
    const auto driver = nl.driver_of(bit);
    if (!driver) return std::nullopt;
    drivers.push_back(*driver);
  }
  return drivers;
}

// --- typed classification attempts ----------------------------------------

bool classify_const(const Netlist& nl, std::span<const GateId> drivers,
                    WordOp& op) {
  const GateType type = nl.gate(drivers.front()).type;
  if (type != GateType::kConst0 && type != GateType::kConst1) return false;
  for (GateId g : drivers)
    if (nl.gate(g).type != type) return false;
  op.kind = OpKind::kConst;
  op.name = "const";
  op.const_value = type == GateType::kConst1;
  op.gates_absorbed = drivers.size();
  return true;
}

// Register family: every bit a flop.  Recognizes the load-enable shape (a
// recirculating 2:1 mux with one shared select root across all bits) and
// falls back to a plain register whose data operand is the D-net vector.
bool classify_register(const Netlist& nl, const Signal& word,
                       std::span<const GateId> drivers,
                       const std::string& base, SignalTable& signals,
                       WordOp& op) {
  for (GateId g : drivers)
    if (nl.gate(g).type != GateType::kDff) return false;

  std::vector<NetId> d_nets;
  d_nets.reserve(drivers.size());
  for (GateId g : drivers) d_nets.push_back(nl.gate(g).inputs[0]);

  // Load-enable attempt: each D (wire-stripped, non-inverted) decomposes as
  // a 2:1 mux recirculating the bit's own Q, all bits agreeing on the
  // select root and the recirculating branch.
  struct BitMux {
    Control enable;
    NetId data;
  };
  std::vector<BitMux> muxes;
  bool enable_ok = true;
  for (std::size_t i = 0; i < drivers.size() && enable_ok; ++i) {
    const analysis::ControlRoot root =
        analysis::trace_control_root(nl, d_nets[i]);
    const auto mux_driver = nl.driver_of(root.net);
    if (!root.active_high || !mux_driver) {
      enable_ok = false;
      break;
    }
    const auto mux = analysis::decompose_mux2(nl, *mux_driver);
    if (!mux) {
      enable_ok = false;
      break;
    }
    const NetId q = word.bits[i];
    if (mux->when_true == q && mux->when_false != q) {
      // Holds when select is 1: enable is the select seen active-low.
      muxes.push_back(BitMux{Control{mux->select, false}, mux->when_false});
    } else if (mux->when_false == q && mux->when_true != q) {
      muxes.push_back(BitMux{Control{mux->select, true}, mux->when_true});
    } else {
      enable_ok = false;
    }
  }
  if (enable_ok && !muxes.empty()) {
    const Control enable = muxes.front().enable;
    for (const BitMux& m : muxes)
      if (m.enable.net != enable.net ||
          m.enable.active_high != enable.active_high)
        enable_ok = false;
    if (enable_ok) {
      std::vector<NetId> data;
      data.reserve(muxes.size());
      for (const BitMux& m : muxes) data.push_back(m.data);
      op.kind = OpKind::kLoadRegister;
      op.name = "load_register";
      op.control = enable;
      op.operands = {signals.add_operand(std::move(data), base + "_d")};
      op.d_nets = std::move(d_nets);
      // DFF + mux root + two product gates per bit (shared inverters and
      // buffer chains are not charged).
      op.gates_absorbed = word.width() * 4;
      return true;
    }
  }

  op.kind = OpKind::kRegister;
  op.name = "register";
  op.operands = {
      signals.add_operand(std::vector<NetId>(d_nets), base + "_d")};
  op.d_nets = std::move(d_nets);
  op.gates_absorbed = word.width();
  return true;
}

bool classify_mux2(const Netlist& nl, std::span<const GateId> drivers,
                   const std::string& base, SignalTable& signals,
                   WordOp& op) {
  std::vector<NetId> when_true;
  std::vector<NetId> when_false;
  NetId select = NetId::invalid();
  for (GateId g : drivers) {
    const auto mux = analysis::decompose_mux2(nl, g);
    if (!mux) return false;
    if (!select.is_valid()) select = mux->select;
    if (mux->select != select) return false;
    when_true.push_back(mux->when_true);
    when_false.push_back(mux->when_false);
  }
  op.kind = OpKind::kMux2;
  op.name = "mux2";
  op.control = Control{select, true};
  const std::size_t t =
      signals.add_operand(std::move(when_true), base + "_t");
  const std::size_t f =
      signals.add_operand(std::move(when_false), base + "_f");
  op.operands = {t, f};
  // Mux root + two product gates per bit.
  op.gates_absorbed = drivers.size() * 3;
  return true;
}

bool classify_bitwise(const Netlist& nl, std::span<const GateId> drivers,
                      const std::string& base, SignalTable& signals,
                      WordOp& op) {
  const GateType type = nl.gate(drivers.front()).type;
  const std::size_t arity = nl.gate(drivers.front()).inputs.size();
  if (type == GateType::kDff || type == GateType::kConst0 ||
      type == GateType::kConst1)
    return false;
  for (GateId g : drivers)
    if (nl.gate(g).type != type || nl.gate(g).inputs.size() != arity)
      return false;

  for (std::size_t j = 0; j < arity; ++j) {
    std::vector<NetId> column;
    column.reserve(drivers.size());
    for (GateId g : drivers) column.push_back(nl.gate(g).inputs[j]);
    op.operands.push_back(signals.add_operand(
        std::move(column), base + "_in" + std::to_string(j)));
  }
  op.kind = OpKind::kBitwise;
  op.name = bitwise_name(type);
  op.bitwise_type = type;
  op.gates_absorbed = drivers.size();
  return true;
}

// Opaque fallback: capture each bit's fanin cone verbatim, bounded at flop
// outputs, primary inputs, and `depth` gate levels; frontier nets become the
// operator's inputs.
void classify_opaque(const Netlist& nl, const Signal& word, std::size_t depth,
                     WordOp& op) {
  std::unordered_set<std::uint32_t> in_cone;
  std::vector<GateId> gates;
  std::vector<GateId> frontier;
  for (NetId bit : word.bits) {
    const auto driver = nl.driver_of(bit);
    if (!driver) continue;  // undriven bit: stays a leaf of the operator
    if (in_cone.insert(driver->value()).second) {
      gates.push_back(*driver);
      frontier.push_back(*driver);
    }
  }
  for (std::size_t level = 1; level < depth && !frontier.empty(); ++level) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      for (NetId in : nl.gate(g).inputs) {
        const auto driver = nl.driver_of(in);
        if (!driver) continue;
        if (nl.gate(*driver).type == GateType::kDff) continue;  // state leaf
        if (in_cone.insert(driver->value()).second) {
          gates.push_back(*driver);
          next.push_back(*driver);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(gates.begin(), gates.end());  // ascending id == file order

  std::unordered_set<std::uint32_t> driven;
  for (GateId g : gates) driven.insert(nl.gate(g).output.value());
  std::unordered_set<std::uint32_t> seen_leaves;
  for (GateId g : gates) {
    OpaqueGate copy;
    copy.type = nl.gate(g).type;
    copy.output = nl.gate(g).output;
    copy.inputs = nl.gate(g).inputs;
    for (NetId in : copy.inputs)
      if (driven.count(in.value()) == 0 && seen_leaves.insert(in.value()).second)
        op.leaves.push_back(in);
    op.gates.push_back(std::move(copy));
  }
  for (NetId bit : word.bits)
    if (!nl.driver_of(bit) && seen_leaves.insert(bit.value()).second)
      op.leaves.push_back(bit);  // undriven bit is its own input
  op.kind = OpKind::kOpaque;
  op.name = "opaque";
  op.gates_absorbed = op.gates.size();
}

}  // namespace

LiftResult lift_words(const Netlist& nl, const netlist::CompactView& view,
                      const wordrec::WordSet& words, const Options& options,
                      const exec::Checkpoint& checkpoint) {
  perf::ScopedWork work(perf::counter<"stage.lift_ns">());
  exec::chaos_point("lift");
  LiftResult model;
  model.coverage.total_gates = nl.gate_count();
  SignalTable signals(model);

  // Register every lifted word's signal first so operand vectors that equal
  // another word resolve to that word's signal, whatever the word order.
  // Only multi-bit words carry structure worth naming.
  std::vector<std::size_t> word_signals;
  for (const wordrec::Word& word : words.words) {
    if (word.width() < 2) continue;
    word_signals.push_back(signals.add_word(
        word.bits, "w" + std::to_string(word_signals.size())));
  }
  model.coverage.words = word_signals.size();

  for (std::size_t sig : word_signals) {
    checkpoint.poll();
    // The signal table never mutates existing entries, so this reference is
    // only used before any operand interning for the same op.
    const Signal word = model.signals[sig];
    const auto drivers = bit_drivers(nl, word);
    WordOp op;
    op.output = sig;
    bool typed = false;
    if (drivers) {
      typed = classify_const(nl, *drivers, op) ||
              classify_register(nl, word, *drivers, word.name, signals, op) ||
              classify_mux2(nl, *drivers, word.name, signals, op) ||
              classify_bitwise(nl, *drivers, word.name, signals, op);
    }
    if (!typed) classify_opaque(nl, word, kOpaqueDepth, op);
    if (typed)
      ++model.coverage.typed_ops;
    else
      ++model.coverage.opaque_ops;
    model.coverage.gates_absorbed += op.gates_absorbed;
    model.ops.push_back(std::move(op));
  }

  if (options.verify)
    verify_model(view, model, options, checkpoint);
  return model;
}

}  // namespace netrev::lift
