// The stock rule set.  Each rule is a small stateless class; shared graph
// work (combinational SCCs, reverse reachability) lives in its run() so a
// filtered run pays only for the rules it enables.
#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "analysis/collector.h"
#include "analysis/registry.h"
#include "analysis/scc.h"
#include "netlist/gate_type.h"

namespace netrev::analysis {

namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// --- comb-cycle ------------------------------------------------------------

class CombCycleRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "comb-cycle",
        "combinational logic forms a cycle (breaks levelization, simulation, "
        "and cone hashing)",
        "insert a flip-flop on the loop or rewire the feedback path",
        diag::Severity::kError, Category::kStructure};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    for (const CombinationalScc& scc : combinational_sccs(context.netlist)) {
      collect.add("combinational cycle of " + std::to_string(scc.gates.size()) +
                      " gate(s): " + describe_cycle(context.netlist, scc),
                  scc.nets);
    }
  }
};

// --- multi-driven ----------------------------------------------------------

// The in-memory Netlist keeps exactly one driver per net (add_gate rejects a
// second), so a multi-driven net in the source survives only as the parser's
// keep-first recovery diagnostic.  This rule folds those parse facts back
// into findings; the structural scan below is a consistency backstop.
class MultiDrivenRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "multi-driven",
        "a net is driven by more than one gate (later drivers were dropped "
        "keep-first during recovery)",
        "remove or rename the conflicting driver",
        diag::Severity::kError, Category::kStructure};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;

    // Parse facts: "net already driven: NAME; gate dropped" per extra driver.
    if (context.parse_diags != nullptr) {
      static constexpr std::string_view kPrefix = "net already driven: ";
      std::unordered_map<std::string, std::size_t> extra_drivers;
      std::vector<std::string> order;
      for (const diag::Diagnostic& entry : context.parse_diags->entries()) {
        if (entry.message.rfind(kPrefix, 0) != 0) continue;
        std::string name = entry.message.substr(kPrefix.size());
        if (const auto semi = name.find(';'); semi != std::string::npos)
          name.resize(semi);
        if (extra_drivers[name]++ == 0) order.push_back(name);
      }
      for (const std::string& name : order) {
        std::vector<NetId> nets;
        if (const auto net = nl.find_net(name)) nets.push_back(*net);
        collect.add("net '" + name + "' has " +
                        std::to_string(extra_drivers[name] + 1) +
                        " drivers; all but the first were dropped",
                    std::move(nets));
      }
    }

    // Structural backstop: a gate whose output net does not record it as the
    // driver indicates an inconsistent (externally mutated) graph.
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const GateId id = nl.gate_id_at(g);
      const NetId output = nl.gate(id).output;
      if (nl.net(output).driver != id)
        collect.add("net '" + nl.net(output).name +
                        "' is driven by a gate it does not record as driver",
                    {output});
    }
  }
};

// --- undriven-net ----------------------------------------------------------

class UndrivenNetRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "undriven-net",
        "a net that is not a primary input has no driver (floating input to "
        "its readers)",
        "declare the net as an input or drive it (repair ties it to 0)",
        diag::Severity::kError, Category::kStructure};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    for (std::size_t i = 0; i < nl.net_count(); ++i) {
      const NetId id = nl.net_id_at(i);
      const netlist::Net& net = nl.net(id);
      if (net.driver.is_valid() || net.is_primary_input) continue;
      collect.add("net '" + net.name + "' has no driver and is not a primary "
                                       "input (" +
                      std::to_string(net.fanouts.size()) + " reader(s))",
                  {id});
    }
  }
};

// --- dead-logic ------------------------------------------------------------

class DeadLogicRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "dead-logic",
        "logic that cannot reach any primary output (reverse reachability)",
        "remove the dead cone or expose its root as an output",
        diag::Severity::kWarning, Category::kStructure};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    if (nl.gate_count() == 0) return;

    const std::vector<NetId> outputs = nl.primary_outputs();
    if (outputs.empty()) {
      collect.add("design has no primary outputs; every gate is unobservable");
      return;
    }

    // Reverse reachability from the PO drivers, crossing flops (a flop whose
    // output is observable keeps its whole next-state cone alive).
    std::vector<bool> live(nl.gate_count(), false);
    std::vector<std::size_t> queue;
    const auto enqueue = [&](NetId net) {
      const auto drv = nl.driver_of(net);
      if (!drv || live[drv->value()]) return;
      live[drv->value()] = true;
      queue.push_back(drv->value());
    };
    for (NetId po : outputs) enqueue(po);
    while (!queue.empty()) {
      const std::size_t g = queue.back();
      queue.pop_back();
      for (NetId in : nl.gate(nl.gate_id_at(g)).inputs) enqueue(in);
    }

    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      if (live[g]) continue;
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      collect.add("gate " + std::string(gate_type_name(gate.type)) +
                      " driving '" + nl.net(gate.output).name +
                      "' cannot reach any primary output",
                  {gate.output});
    }
  }
};

// --- const-foldable --------------------------------------------------------

class ConstFoldableRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "const-foldable",
        "a gate whose output is fixed by constant inputs (all-constant fanin "
        "or a controlling constant)",
        "fold the constant through and remove the gate",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    const auto const_value = [&](NetId net) -> std::optional<bool> {
      const auto drv = nl.driver_of(net);
      if (!drv) return std::nullopt;
      const GateType type = nl.gate(*drv).type;
      if (type == GateType::kConst0) return false;
      if (type == GateType::kConst1) return true;
      return std::nullopt;
    };

    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      if (!netlist::is_combinational(gate.type) ||
          gate.type == GateType::kConst0 || gate.type == GateType::kConst1)
        continue;
      bool all_const = !gate.inputs.empty();
      bool controlling_const = false;
      const auto controlling = netlist::controlling_value(gate.type);
      for (NetId in : gate.inputs) {
        const auto value = const_value(in);
        if (!value) {
          all_const = false;
        } else if (controlling && *value == *controlling) {
          controlling_const = true;
        }
      }
      if (all_const) {
        collect.add("gate " + std::string(gate_type_name(gate.type)) +
                        " driving '" + nl.net(gate.output).name +
                        "' has all inputs tied to constants",
                    {gate.output});
      } else if (controlling_const) {
        collect.add("gate " + std::string(gate_type_name(gate.type)) +
                        " driving '" + nl.net(gate.output).name +
                        "' has a controlling constant input; output is fixed",
                    {gate.output});
      }
    }
  }
};

// --- degenerate-gate -------------------------------------------------------

class DegenerateGateRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "degenerate-gate",
        "a gate reading the same net twice or reading its own output",
        "deduplicate the fanin (XOR/XNOR pairs cancel) or cut the self-edge",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      std::unordered_set<std::uint32_t> seen;
      bool reported = false;
      for (NetId in : gate.inputs) {
        if (in == gate.output && !reported) {
          collect.add("gate " + std::string(gate_type_name(gate.type)) +
                          " driving '" + nl.net(gate.output).name +
                          "' reads its own output",
                      {gate.output});
          reported = true;
        } else if (!seen.insert(in.value()).second && !reported) {
          collect.add("gate " + std::string(gate_type_name(gate.type)) +
                          " driving '" + nl.net(gate.output).name +
                          "' reads net '" + nl.net(in).name + "' twice",
                      {gate.output, in});
          reported = true;
        }
      }
    }
  }
};

// --- high-fanout -----------------------------------------------------------

class HighFanoutRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "high-fanout",
        "a net whose fanout is far above the design's distribution — a "
        "candidate clock/reset/control signal (the kind §2.4 ranks)",
        "confirm the net's role; control-signal identification treats it "
        "specially",
        diag::Severity::kNote, Category::kSignal};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;

    std::vector<std::size_t> fanouts;
    for (std::size_t i = 0; i < nl.net_count(); ++i) {
      const std::size_t f = nl.net(nl.net_id_at(i)).fanouts.size();
      if (f > 0) fanouts.push_back(f);
    }
    if (fanouts.empty()) return;
    std::sort(fanouts.begin(), fanouts.end());
    const double p = kFanoutPercentile / 100.0;
    const auto index = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(fanouts.size())));
    const std::size_t percentile_value =
        fanouts[std::min(index == 0 ? 0 : index - 1, fanouts.size() - 1)];
    const std::size_t threshold =
        std::max(percentile_value, kMinFlaggedFanout);

    for (std::size_t i = 0; i < nl.net_count(); ++i) {
      const NetId id = nl.net_id_at(i);
      const std::size_t f = nl.net(id).fanouts.size();
      if (f < threshold) continue;
      collect.add("net '" + nl.net(id).name + "' drives " + std::to_string(f) +
                      " gate(s) (p" +
                      std::to_string(static_cast<int>(kFanoutPercentile)) +
                      " of this design is " +
                      std::to_string(percentile_value) +
                      "): candidate clock/reset/control signal",
                  {id});
    }
  }
};

// --- dff-self-loop ---------------------------------------------------------

// A flop whose D input recirculates its own output through buffers only can
// never change state (a toggle through an inverter is legitimate and common;
// this flags the degenerate hold case, which usually indicates a stitched or
// damaged netlist).
class DffSelfLoopRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "dff-self-loop",
        "a flip-flop recirculating its own output through buffers only (its "
        "state can never change)",
        "tie the flop to its real next-state logic or replace it with a "
        "constant",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      if (gate.type != GateType::kDff) continue;
      // Follow the D net backward through BUF gates; a visited set guards
      // against buffer rings.
      std::unordered_set<std::uint32_t> visited;
      NetId current = gate.inputs.front();
      while (visited.insert(current.value()).second) {
        if (current == gate.output) {
          collect.add("flop '" + nl.net(gate.output).name +
                          "' recirculates its own output through buffers "
                          "only; its state can never change",
                      {gate.output});
          break;
        }
        const auto drv = nl.driver_of(current);
        if (!drv || nl.gate(*drv).type != GateType::kBuf) break;
        current = nl.gate(*drv).inputs.front();
      }
    }
  }
};

}  // namespace

void register_builtin_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<CombCycleRule>());
  registry.add(std::make_unique<MultiDrivenRule>());
  registry.add(std::make_unique<UndrivenNetRule>());
  registry.add(std::make_unique<DeadLogicRule>());
  registry.add(std::make_unique<ConstFoldableRule>());
  registry.add(std::make_unique<DegenerateGateRule>());
  registry.add(std::make_unique<HighFanoutRule>());
  registry.add(std::make_unique<DffSelfLoopRule>());
  register_dataflow_rules(registry);
}

}  // namespace netrev::analysis
