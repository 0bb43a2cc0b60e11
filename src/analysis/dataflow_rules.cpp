// Rules built on the dataflow engine (analysis/dataflow.h) and the
// control-domain inference (analysis/domains.h):
//
//   const-net         — a comb-driven net provably constant at every cycle
//   stuck-ff          — a flop that provably holds state or settles constant
//   redundant-mux     — a structural mux whose select folds to a constant
//   mixed-domain-word — one named register whose bits span control domains
//
// The expensive shared facts are computed once per analyze() run through the
// AnalysisContext lazy slots (or taken precomputed from the Session's
// ArtifactCache stage), so enabling several of these rules pays for one
// engine run.
#include <map>
#include <string>

#include "analysis/collector.h"
#include "analysis/dataflow.h"
#include "analysis/domains.h"
#include "analysis/registry.h"
#include "common/text.h"
#include "netlist/gate_type.h"

namespace netrev::analysis {

const DataflowFacts& dataflow_facts(const AnalysisContext& context) {
  if (context.dataflow) return *context.dataflow;
  if (!context.lazy_dataflow) {
    // Library callers that pass no facts get a view of their own; the
    // Session hands analyze() facts computed on its cached view instead.
    context.lazy_dataflow = std::make_shared<const DataflowFacts>(
        run_dataflow(netlist::CompactView::build(context.netlist),
                     context.options.checkpoint));
  }
  return *context.lazy_dataflow;
}

const DomainAnalysis& domain_analysis(const AnalysisContext& context) {
  if (context.domains) return *context.domains;
  if (!context.lazy_domains) {
    context.lazy_domains = std::make_shared<const DomainAnalysis>(
        analyze_domains(context.netlist, context.options.checkpoint));
  }
  return *context.lazy_domains;
}

namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetId;

// --- const-net -------------------------------------------------------------

class ConstNetRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "const-net",
        "a gate-driven net is provably constant at every cycle, from any "
        "flop state (ternary constant propagation)",
        "replace the driving logic with a constant tie, or remove it",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    const DataflowFacts& facts = dataflow_facts(context);
    for (std::size_t i = 0; i < nl.net_count(); ++i) {
      const NetId net = nl.net_id_at(i);
      if (!facts.always_constant(net)) continue;
      // Only *derived* constants are findings: a net wired to a constant
      // gate says what it means.
      const auto driver = nl.driver_of(net);
      if (!driver) continue;
      const GateType type = nl.gate(*driver).type;
      if (type == GateType::kConst0 || type == GateType::kConst1) continue;
      collect.add("net '" + nl.net(net).name + "' is provably constant " +
                      ternary_code(facts.always[net.value()]) +
                      " at every cycle",
                  {net});
    }
  }
};

// --- stuck-ff --------------------------------------------------------------

class StuckFfRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "stuck-ff",
        "a flop's next-state provably equals its current state (it can never "
        "change), or its value settles to a constant from any start state",
        "remove the flop or fix the feedback logic that pins it",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    const DataflowFacts& facts = dataflow_facts(context);
    for (const StuckFlop& stuck : facts.stuck_flops) {
      const NetId q = nl.gate(stuck.flop).output;
      if (stuck.holds_state) {
        collect.add("flop '" + nl.net(q).name +
                        "' can never change state: its next-state function "
                        "provably equals its current state",
                    {q});
      } else if (is_ternary_const(stuck.settles_to)) {
        collect.add("flop '" + nl.net(q).name + "' settles to constant " +
                        ternary_code(stuck.settles_to) + " within " +
                        std::to_string(facts.iterations) +
                        " cycle(s) from any start state",
                    {q});
      }
    }
  }
};

// --- redundant-mux ---------------------------------------------------------

class RedundantMuxRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "redundant-mux",
        "a structural 2-way mux has a provably constant select: one branch "
        "is never passed",
        "wire the always-selected branch through directly",
        diag::Severity::kWarning, Category::kLogic};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    const DataflowFacts& facts = dataflow_facts(context);
    for (std::size_t i = 0; i < nl.gate_count(); ++i) {
      const GateId g = nl.gate_id_at(i);
      if (!is_combinational(nl.gate(g).type)) continue;
      const auto select = detect_mux_select(nl, g);
      if (!select || !facts.always_constant(*select)) continue;
      collect.add("mux driving '" + nl.net(nl.gate(g).output).name +
                      "' has a provably constant select '" +
                      nl.net(*select).name + "' (=" +
                      ternary_code(facts.always[select->value()]) +
                      "); one branch is never passed",
                  {nl.gate(g).output, *select});
    }
  }
};

// --- mixed-domain-word -----------------------------------------------------

class MixedDomainWordRule final : public AnalysisRule {
 public:
  const RuleInfo& info() const override {
    static const RuleInfo kInfo{
        "mixed-domain-word",
        "a minority of one named register's bits deviate from the dominant "
        "control domain (enable/set/reset roots) of the other bits — the "
        "word may be misgrouped",
        "check whether the outlier bits really belong to the register",
        diag::Severity::kWarning, Category::kSignal};
    return kInfo;
  }

  void run(const AnalysisContext& context,
           std::vector<Finding>& out) const override {
    Collector collect(info(), out);
    const Netlist& nl = context.netlist;
    const DomainAnalysis& domains = domain_analysis(context);

    // Candidate words come from flop-output names, the same convention the
    // eval reference extractor uses; ordered map for deterministic output.
    std::map<std::string, std::vector<const FlopDomain*>> words;
    for (const FlopDomain& flop : domains.flops) {
      const auto parsed =
          parse_indexed_name(nl.net(nl.gate(flop.flop).output).name);
      if (parsed) words[parsed->base].push_back(&flop);
    }

    for (const auto& [base, bits] : words) {
      if (bits.size() < 2) continue;
      std::map<DomainSignature, std::size_t> counts;
      for (const FlopDomain* flop : bits) ++counts[flop->signature];
      if (counts.size() < 2) continue;
      // Only a dominant-domain-with-outliers split is suspicious.  A state
      // register whose every bit carries its own next-state terms (all
      // signatures distinct, or an even split) is normal sequential logic,
      // not a misgrouped word — firing there would drown the signal.
      const DomainSignature* dominant = nullptr;
      std::size_t dominant_count = 0;
      for (const auto& [signature, count] : counts) {
        if (count > dominant_count) {
          dominant = &signature;
          dominant_count = count;
        }
      }
      if (dominant_count * 2 <= bits.size()) continue;
      std::vector<NetId> outliers;
      for (const FlopDomain* flop : bits)
        if (!(flop->signature == *dominant))
          outliers.push_back(nl.gate(flop->flop).output);
      std::string named;
      for (NetId net : outliers) {
        if (!named.empty()) named += ", ";
        named += "'" + nl.net(net).name + "'";
      }
      collect.add("register '" + base + "' (" + std::to_string(bits.size()) +
                      " bits): " + std::to_string(outliers.size()) +
                      " bit(s) deviate from the dominant control domain (" +
                      dominant->describe(nl) + "): " + named,
                  std::move(outliers));
    }
  }
};

}  // namespace

void register_dataflow_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<ConstNetRule>());
  registry.add(std::make_unique<StuckFfRule>());
  registry.add(std::make_unique<RedundantMuxRule>());
  registry.add(std::make_unique<MixedDomainWordRule>());
}

}  // namespace netrev::analysis
