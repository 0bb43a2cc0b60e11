// The bounded finding sink every stock rule writes through (rules.cpp,
// dataflow_rules.cpp).  Internal to the rule implementations.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/rule.h"

namespace netrev::analysis {

// Keeps at most kMaxFindingsPerRule findings for one rule and folds the
// overflow into a final summary finding.
class Collector {
 public:
  Collector(const RuleInfo& info, std::vector<Finding>& out)
      : info_(info), out_(out) {}

  void add(std::string message, std::vector<netlist::NetId> nets = {}) {
    ++total_;
    if (kept_ >= kMaxFindingsPerRule) return;
    ++kept_;
    Finding finding;
    finding.rule = info_.id;
    finding.severity = info_.severity;
    finding.message = std::move(message);
    finding.fix_hint = info_.fix_hint;
    finding.nets = std::move(nets);
    out_.push_back(std::move(finding));
  }

  ~Collector() {
    if (total_ <= kept_) return;
    Finding finding;
    finding.rule = info_.id;
    finding.severity = info_.severity;
    finding.message = std::to_string(total_ - kept_) + " further " + info_.id +
                      " finding(s) suppressed (cap " +
                      std::to_string(kMaxFindingsPerRule) + " per rule)";
    out_.push_back(std::move(finding));
  }

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

 private:
  const RuleInfo& info_;
  std::vector<Finding>& out_;
  std::size_t total_ = 0;
  std::size_t kept_ = 0;
};

}  // namespace netrev::analysis
