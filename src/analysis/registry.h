// Rule registry: owns AnalysisRule instances, preserves registration order,
// and rejects duplicate ids.  `builtin()` is the engine's stock rule set
// (~8 structural/logic/signal checks); callers compose their own registry to
// add project-specific rules.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/rule.h"

namespace netrev::analysis {

class RuleRegistry {
 public:
  // Throws std::invalid_argument if a rule with the same id is registered.
  void add(std::unique_ptr<AnalysisRule> rule);

  // nullptr if no rule has this id.
  const AnalysisRule* find(std::string_view id) const;

  // The rules with these ids, in the given order.  Throws
  // std::invalid_argument naming the first unknown id and every known one.
  std::vector<const AnalysisRule*> require(
      const std::vector<std::string>& ids) const;

  // All rules in registration order.
  const std::vector<std::unique_ptr<AnalysisRule>>& rules() const {
    return rules_;
  }

  // The stock rule set, constructed once per process:
  //   comb-cycle, multi-driven, undriven-net, dead-logic, const-foldable,
  //   degenerate-gate, high-fanout, dff-self-loop, plus the dataflow-backed
  //   rules const-net, stuck-ff, redundant-mux, mixed-domain-word
  static const RuleRegistry& builtin();

 private:
  std::vector<std::unique_ptr<AnalysisRule>> rules_;
};

// Registers the stock rules into `registry` (exposed so custom registries can
// start from the builtin set).  Includes the dataflow rules below.
void register_builtin_rules(RuleRegistry& registry);

// Registers only the rules built on the dataflow/domain engines
// (dataflow_rules.cpp): const-net, stuck-ff, redundant-mux,
// mixed-domain-word.
void register_dataflow_rules(RuleRegistry& registry);

}  // namespace netrev::analysis
