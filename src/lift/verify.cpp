#include "lift/verify.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <unordered_map>

#include "rtl/lower_ops.h"
#include "rtl/netnamer.h"
#include "sim/packed.h"
#include "sim/sample.h"

namespace netrev::lift {

namespace {

using netlist::GateType;
using netlist::NetId;

// Builds the blasted netlist's boundary: original nets become synthetic
// "n<id>" primary inputs, created once however many operands share them.
class Boundary {
 public:
  explicit Boundary(BlastedOp& blast) : blast_(&blast) {}

  NetId pin(NetId original) {
    const auto it = pins_.find(original.value());
    if (it != pins_.end()) return it->second;
    const NetId created =
        blast_->nl.add_net("n" + std::to_string(original.value()));
    blast_->nl.mark_primary_input(created);
    blast_->inputs.push_back({created, original});
    pins_.emplace(original.value(), created);
    return created;
  }

  // True when `original` already has a blasted counterpart (pin or gate
  // output registered through alias()).
  std::optional<NetId> lookup(NetId original) const {
    const auto it = pins_.find(original.value());
    if (it == pins_.end()) return std::nullopt;
    return it->second;
  }

  // Registers a non-input correspondence (opaque cone gate outputs).
  void alias(NetId original, NetId blasted) {
    pins_.emplace(original.value(), blasted);
  }

 private:
  BlastedOp* blast_;
  std::unordered_map<std::uint32_t, NetId> pins_;
};

// A fresh output net "o<k>", mapped back to `original` for comparison.
NetId out_net(BlastedOp& blast, std::size_t k, NetId original) {
  const NetId created = blast.nl.add_net("o" + std::to_string(k));
  blast.outputs.push_back({created, original});
  return created;
}

}  // namespace

BlastedOp bit_blast(const LiftResult& model, const WordOp& op) {
  BlastedOp blast;
  blast.nl.set_name("lifted_op");
  Boundary boundary(blast);
  rtl::NetNamer namer(blast.nl);
  const Signal& word = model.signals[op.output];

  switch (op.kind) {
    case OpKind::kConst: {
      for (std::size_t i = 0; i < word.width(); ++i) {
        const NetId out = out_net(blast, i, word.bits[i]);
        blast.nl.add_gate(
            op.const_value ? GateType::kConst1 : GateType::kConst0, out, {});
      }
      break;
    }
    case OpKind::kBitwise: {
      for (std::size_t i = 0; i < word.width(); ++i) {
        rtl::GateSpec spec;
        spec.type = op.bitwise_type;
        for (std::size_t operand : op.operands)
          spec.inputs.push_back(boundary.pin(model.signals[operand].bits[i]));
        const NetId out = out_net(blast, i, word.bits[i]);
        blast.nl.add_gate(spec.type, out, spec.inputs);
      }
      break;
    }
    case OpKind::kMux2: {
      const Signal& when_true = model.signals[op.operands[0]];
      const Signal& when_false = model.signals[op.operands[1]];
      const NetId sel = boundary.pin(op.control.net);
      const NetId not_sel = rtl::make_not(namer, sel);
      for (std::size_t i = 0; i < word.width(); ++i) {
        // mux2_spec(sel, a, b): sel ? b : a.
        const rtl::GateSpec root = rtl::mux2_spec(
            namer, sel, boundary.pin(when_false.bits[i]),
            boundary.pin(when_true.bits[i]), not_sel);
        rtl::emit_onto(namer, out_net(blast, i, word.bits[i]), root);
      }
      break;
    }
    case OpKind::kRegister: {
      const Signal& data = model.signals[op.operands[0]];
      for (std::size_t i = 0; i < word.width(); ++i) {
        const NetId in = boundary.pin(data.bits[i]);
        const NetId out = out_net(blast, i, op.d_nets[i]);
        blast.nl.add_gate(GateType::kBuf, out, {in});
      }
      break;
    }
    case OpKind::kLoadRegister: {
      const Signal& data = model.signals[op.operands[0]];
      const NetId sel = boundary.pin(op.control.net);
      const NetId not_sel = rtl::make_not(namer, sel);
      for (std::size_t i = 0; i < word.width(); ++i) {
        const NetId d = boundary.pin(data.bits[i]);
        const NetId q = boundary.pin(word.bits[i]);
        // Next state: enable asserted loads data, otherwise holds Q.  With
        // an active-high enable the select-net-1 branch is data.
        const rtl::GateSpec root =
            op.control.active_high
                ? rtl::mux2_spec(namer, sel, q, d, not_sel)
                : rtl::mux2_spec(namer, sel, d, q, not_sel);
        rtl::emit_onto(namer, out_net(blast, i, op.d_nets[i]), root);
      }
      break;
    }
    case OpKind::kOpaque: {
      for (NetId leaf : op.leaves) boundary.pin(leaf);
      // Create every cone output first — the cone is in file order, which
      // need not be topological.
      for (std::size_t g = 0; g < op.gates.size(); ++g)
        boundary.alias(op.gates[g].output,
                       blast.nl.add_net("g" + std::to_string(g)));
      for (const OpaqueGate& gate : op.gates) {
        std::vector<NetId> inputs;
        inputs.reserve(gate.inputs.size());
        for (NetId in : gate.inputs) inputs.push_back(*boundary.lookup(in));
        blast.nl.add_gate(gate.type, *boundary.lookup(gate.output), inputs);
      }
      for (NetId bit : word.bits)
        if (const auto mapped = boundary.lookup(bit))
          blast.outputs.push_back({*mapped, bit});
      break;
    }
  }
  return blast;
}

void verify_model(const netlist::CompactView& view, LiftResult& model,
                  const Options& options,
                  const exec::Checkpoint& checkpoint) {
  model.vectors_per_op = options.verify_vectors;

  std::vector<BlastedOp> blasted;
  blasted.reserve(model.ops.size());
  for (const WordOp& op : model.ops) {
    checkpoint.poll();
    blasted.push_back(bit_blast(model, op));
  }

  // One packed sampling pass over the source design covers every operator's
  // boundary and outputs.
  std::vector<NetId> probes;
  std::unordered_map<std::uint32_t, std::size_t> probe_index;
  const auto probe = [&](NetId net) {
    if (probe_index.emplace(net.value(), probes.size()).second)
      probes.push_back(net);
  };
  for (const BlastedOp& blast : blasted) {
    for (const auto& [blasted_net, original] : blast.inputs) probe(original);
    for (const auto& [blasted_net, original] : blast.outputs) probe(original);
  }
  const std::size_t vectors = options.verify_vectors;
  std::vector<std::uint8_t> samples;
  if (!probes.empty())
    samples = sim::sample_random_vectors(view, probes, vectors, kVerifySeed);

  // Lane-pack the samples once: word w of a probe holds vectors 64w..64w+63,
  // vector 64w+l in bit l, the layout PackedSimulator evaluates.
  const std::size_t words = (vectors + 63) / 64;
  std::vector<std::uint64_t> packed(probes.size() * words, 0);
  for (std::size_t v = 0; v < vectors; ++v)
    for (std::size_t p = 0; p < probes.size(); ++p)
      if (samples[v * probes.size() + p] != 0)
        packed[p * words + v / 64] |= std::uint64_t{1} << (v % 64);
  const auto lanes = [&](NetId original, std::size_t w) {
    return packed[probe_index.at(original.value()) * words + w];
  };

  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    checkpoint.poll();
    WordOp& op = model.ops[i];
    const BlastedOp& blast = blasted[i];
    const netlist::CompactView blast_view =
        netlist::CompactView::build(blast.nl);
    sim::PackedSimulator sim(blast_view);
    std::size_t mismatches = 0;
    for (std::size_t w = 0; w < words; ++w) {
      // Lanes past the last vector carry no sample; only live lanes count.
      const std::size_t live = std::min<std::size_t>(64, vectors - 64 * w);
      const std::uint64_t mask =
          live == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << live) - 1;
      for (const auto& [blasted_net, original] : blast.inputs)
        sim.set_input_word(blasted_net.value(), lanes(original, w));
      sim.eval();
      for (const auto& [blasted_net, original] : blast.outputs)
        mismatches += static_cast<std::size_t>(std::popcount(
            (sim.value_word(blasted_net.value()) ^ lanes(original, w)) &
            mask));
    }
    op.checked = true;
    op.mismatches = mismatches;
    op.equivalent = mismatches == 0;
    ++model.ops_checked;
    if (op.equivalent) ++model.ops_equivalent;
  }
  model.verdict =
      model.ops_checked == model.ops_equivalent ? "equivalent" : "not_equivalent";
}

}  // namespace netrev::lift
