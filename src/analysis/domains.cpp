#include "analysis/domains.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/thread_pool.h"
#include "perf/profile.h"

namespace netrev::analysis {

namespace {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// A polarity-tracked wire: value = negated ? !v(net) : v(net).
struct Literal {
  NetId net = NetId::invalid();
  bool negated = false;
};

// Walks driver chains back through BUF/NOT, folding the inversions into the
// literal.  Stops at the first non-wire driver (or after net_count hops, so
// a buffer cycle in a broken netlist cannot hang the walk).
Literal strip_wires(const Netlist& nl, NetId net, bool negated) {
  for (std::size_t guard = 0; guard <= nl.net_count(); ++guard) {
    const auto driver = nl.driver_of(net);
    if (!driver) return {net, negated};
    const Gate& gate = nl.gate(*driver);
    if (gate.type == GateType::kBuf) {
      net = gate.inputs[0];
    } else if (gate.type == GateType::kNot) {
      net = gate.inputs[0];
      negated = !negated;
    } else {
      return {net, negated};
    }
  }
  return {net, negated};
}

// True when the literal reached an actual root: a primary input / undriven
// net or a flop output.  Constant-driven nets are not domains (they are the
// dataflow engine's business), and a comb-driven net means the pin is logic,
// not a wired control.
bool is_root_literal(const Netlist& nl, const Literal& lit) {
  const auto driver = nl.driver_of(lit.net);
  if (!driver) return true;
  return nl.gate(*driver).type == GateType::kDff;
}

// A gate seen through a possibly-negated wire, DeMorgan-normalized: either
// an OR of literals or an AND of literals, with `input_flip` folded into
// every input literal.
struct FormView {
  bool valid = false;
  bool or_form = false;  // false => and-form
  GateId gate = GateId::invalid();
  bool input_flip = false;
};

FormView classify(const Netlist& nl, const Literal& lit) {
  const auto driver = nl.driver_of(lit.net);
  if (!driver) return {};
  const bool neg = lit.negated;
  switch (nl.gate(*driver).type) {
    case GateType::kAnd:
      return {true, /*or_form=*/neg, *driver, /*input_flip=*/neg};
    case GateType::kNand:
      return {true, !neg, *driver, !neg};
    case GateType::kOr:
      return {true, !neg, *driver, neg};
    case GateType::kNor:
      return {true, neg, *driver, !neg};
    default:
      return {};
  }
}

std::vector<Literal> literals_of(const Netlist& nl, const FormView& view) {
  std::vector<Literal> lits;
  for (NetId in : nl.gate(view.gate).inputs)
    lits.push_back(strip_wires(nl, in, view.input_flip));
  return lits;
}

// A mux decomposed into its shared select and the two product-term literal
// lists: an OR-form of exactly two AND-form products sharing one
// opposite-polarity literal.  Covers AND-OR, NAND-NAND and every
// inverter-sprinkled variant via the DeMorgan normalization above.
struct MuxParts {
  NetId select;
  std::vector<Literal> lits0, lits1;
};

std::optional<MuxParts> mux_parts(const Netlist& nl, const FormView& top) {
  if (!top.valid || !top.or_form || nl.gate(top.gate).inputs.size() != 2)
    return std::nullopt;
  const FormView product0 = classify(
      nl, strip_wires(nl, nl.gate(top.gate).inputs[0], top.input_flip));
  const FormView product1 = classify(
      nl, strip_wires(nl, nl.gate(top.gate).inputs[1], top.input_flip));
  if (!product0.valid || product0.or_form) return std::nullopt;
  if (!product1.valid || product1.or_form) return std::nullopt;

  MuxParts parts{NetId::invalid(), literals_of(nl, product0),
                 literals_of(nl, product1)};
  // The select appears in both products with opposite polarity; pick the
  // lowest net id when the shape is ambiguous, for determinism.
  for (const Literal& a : parts.lits0)
    for (const Literal& b : parts.lits1)
      if (a.net == b.net && a.negated != b.negated)
        if (!parts.select.is_valid() || a.net < parts.select)
          parts.select = a.net;
  if (!parts.select.is_valid()) return std::nullopt;
  return parts;
}

// The load-enable shape: a mux where exactly one product recirculates the
// flop's own Q.
std::optional<ControlRoot> detect_enable_mux(const Netlist& nl,
                                             const FormView& top, NetId q) {
  const auto parts = mux_parts(nl, top);
  if (!parts) return std::nullopt;
  if (nl.net(parts->select).fanouts.size() < kMinControlFanout)
    return std::nullopt;

  const auto recirculates = [&](const std::vector<Literal>& lits) {
    return std::any_of(lits.begin(), lits.end(), [&](const Literal& l) {
      return l.net == q && l.net != parts->select;
    });
  };
  const bool hold0 = recirculates(parts->lits0);
  const bool hold1 = recirculates(parts->lits1);
  if (hold0 == hold1) return std::nullopt;  // need exactly one hold branch

  // Enable is asserted when the *data* branch is selected.
  const std::vector<Literal>& data_lits = hold0 ? parts->lits1 : parts->lits0;
  for (const Literal& l : data_lits)
    if (l.net == parts->select) return ControlRoot{parts->select, !l.negated};
  return std::nullopt;
}

DomainSignature infer_signature(const Netlist& nl, const Gate& flop) {
  DomainSignature sig;
  const NetId q = flop.output;
  const FormView top = classify(nl, strip_wires(nl, flop.inputs[0], false));
  if (!top.valid) return sig;  // wire/shift/XOR-driven: no visible control

  if (auto enable = detect_enable_mux(nl, top, q)) {
    sig.enable = *enable;
    return sig;
  }

  for (const Literal& lit : literals_of(nl, top)) {
    if (lit.net == q) continue;  // recirculation, not control
    if (!is_root_literal(nl, lit)) continue;
    if (nl.net(lit.net).fanouts.size() < kMinControlFanout) continue;
    if (top.or_form) {
      // OR-term at 1 forces D to 1: a sync set, asserted at level !negated.
      sig.sets.push_back(ControlRoot{lit.net, !lit.negated});
    } else {
      // AND-term at 0 forces D to 0: a sync reset, asserted at the level
      // that zeroes the literal.
      sig.resets.push_back(ControlRoot{lit.net, lit.negated});
    }
  }
  const auto dedup = [](std::vector<ControlRoot>& roots) {
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  };
  dedup(sig.sets);
  dedup(sig.resets);
  return sig;
}

}  // namespace

ControlRoot trace_control_root(const Netlist& nl, NetId net, bool active_high) {
  const Literal lit = strip_wires(nl, net, !active_high);
  return ControlRoot{lit.net, !lit.negated};
}

std::string DomainSignature::describe(const Netlist& nl) const {
  if (trivial()) return "none";
  const auto root_name = [&](const ControlRoot& root) {
    std::string text = root.active_high ? "" : "!";
    text += nl.net(root.net).name;
    return text;
  };
  const auto join = [&](const std::vector<ControlRoot>& roots) {
    std::string text;
    for (const ControlRoot& root : roots) {
      if (!text.empty()) text += ',';
      text += root_name(root);
    }
    return text;
  };
  std::string out;
  if (enable.valid()) out += "enable=" + root_name(enable);
  if (!sets.empty()) {
    if (!out.empty()) out += ' ';
    out += "set=" + join(sets);
  }
  if (!resets.empty()) {
    if (!out.empty()) out += ' ';
    out += "reset=" + join(resets);
  }
  return out;
}

std::optional<NetId> detect_mux_select(const Netlist& nl,
                                       netlist::GateId gate) {
  const auto parts =
      mux_parts(nl, classify(nl, Literal{nl.gate(gate).output, false}));
  if (!parts) return std::nullopt;
  return parts->select;
}

std::optional<MuxBranches> decompose_mux2(const Netlist& nl,
                                          netlist::GateId gate) {
  const auto parts =
      mux_parts(nl, classify(nl, Literal{nl.gate(gate).output, false}));
  if (!parts) return std::nullopt;
  if (parts->lits0.size() != 2 || parts->lits1.size() != 2)
    return std::nullopt;

  // Splits a product into (select polarity, data net); the data literal must
  // be a distinct, non-negated wire for the branch to be expressible.
  const auto split =
      [&](const std::vector<Literal>& lits)
      -> std::optional<std::pair<bool, NetId>> {
    const Literal* sel = nullptr;
    const Literal* data = nullptr;
    for (const Literal& lit : lits) {
      if (lit.net == parts->select && sel == nullptr)
        sel = &lit;
      else
        data = &lit;
    }
    if (sel == nullptr || data == nullptr) return std::nullopt;
    if (data->negated || data->net == parts->select) return std::nullopt;
    return std::make_pair(!sel->negated, data->net);
  };

  const auto p0 = split(parts->lits0);
  const auto p1 = split(parts->lits1);
  if (!p0 || !p1 || p0->first == p1->first) return std::nullopt;
  MuxBranches out;
  out.select = parts->select;
  out.when_true = p0->first ? p0->second : p1->second;
  out.when_false = p0->first ? p1->second : p0->second;
  return out;
}

DomainAnalysis analyze_domains(const Netlist& nl,
                               const exec::Checkpoint& checkpoint) {
  perf::ScopedWork work(perf::counter<"stage.domains_ns">());
  checkpoint.poll();

  std::vector<GateId> flops;
  for (GateId g : nl.gates_in_file_order())
    if (nl.gate(g).type == GateType::kDff) flops.push_back(g);

  DomainAnalysis analysis;
  analysis.flops.resize(flops.size());
  // Inference is per-flop and read-only on the netlist: fan out with
  // index-addressed slots, byte-identical at any job count.
  ThreadPool::global().parallel_for(
      0, flops.size(),
      [&](std::size_t i) {
        checkpoint.poll();
        analysis.flops[i] =
            FlopDomain{flops[i], infer_signature(nl, nl.gate(flops[i]))};
      },
      /*grain=*/16);

  // Group by signature; groups appear in first-member file order.
  std::map<DomainSignature, std::size_t> group_of;
  for (const FlopDomain& flop : analysis.flops) {
    const auto [it, inserted] =
        group_of.try_emplace(flop.signature, analysis.groups.size());
    if (inserted)
      analysis.groups.push_back(DomainGroup{flop.signature, {}});
    analysis.groups[it->second].flops.push_back(flop.flop);
  }
  return analysis;
}

}  // namespace netrev::analysis
