#include "analysis/registry.h"

#include <stdexcept>
#include <string>

namespace netrev::analysis {

void RuleRegistry::add(std::unique_ptr<AnalysisRule> rule) {
  if (rule == nullptr) throw std::invalid_argument("null analysis rule");
  const std::string& id = rule->info().id;
  if (id.empty()) throw std::invalid_argument("analysis rule with empty id");
  if (find(id) != nullptr)
    throw std::invalid_argument("duplicate analysis rule id: " + id);
  rules_.push_back(std::move(rule));
}

const AnalysisRule* RuleRegistry::find(std::string_view id) const {
  for (const auto& rule : rules_)
    if (rule->info().id == id) return rule.get();
  return nullptr;
}

std::vector<const AnalysisRule*> RuleRegistry::require(
    const std::vector<std::string>& ids) const {
  std::vector<const AnalysisRule*> selected;
  selected.reserve(ids.size());
  for (const std::string& id : ids) {
    const AnalysisRule* rule = find(id);
    if (rule == nullptr) {
      std::string known;
      for (const auto& r : rules_) {
        if (!known.empty()) known += ", ";
        known += r->info().id;
      }
      throw std::invalid_argument("unknown analysis rule '" + id +
                                  "' (known rules: " + known + ")");
    }
    selected.push_back(rule);
  }
  return selected;
}

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry* const registry = [] {
    auto* r = new RuleRegistry;
    register_builtin_rules(*r);
    return r;
  }();
  return *registry;
}

}  // namespace netrev::analysis
