// The pluggable rule interface of the static-analysis engine.
//
// A rule inspects a netlist (plus optional parse-time diagnostics, for
// defects the in-memory model cannot represent, such as multi-driven nets
// resolved keep-first during recovery) and appends Findings.  Rules are
// stateless and shared; all per-run state lives in the AnalysisContext.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "analysis/finding.h"
#include "common/diagnostics.h"
#include "exec/cancel.h"
#include "netlist/netlist.h"

namespace netrev::analysis {

struct DataflowFacts;
struct DomainAnalysis;

// high-fanout: flag nets whose fanout reaches this percentile of the
// design's nonzero fanout distribution...
inline constexpr double kFanoutPercentile = 99.0;
// ...but never below this absolute floor (small designs have tiny tails).
inline constexpr std::size_t kMinFlaggedFanout = 16;

// Ceiling on findings kept per rule; overflow collapses into one summary
// finding so a pathological input cannot produce unbounded output.
inline constexpr std::size_t kMaxFindingsPerRule = 32;

struct AnalysisOptions {
  // Run only these rule ids; empty = every registered rule.
  std::vector<std::string> enabled_rules;

  // Observation-only (excluded from the options fingerprint): polled by the
  // dataflow engine and the SCC passes the rules run.
  exec::Checkpoint checkpoint;
};

struct AnalysisContext {
  const netlist::Netlist& netlist;
  const AnalysisOptions& options;
  // Optional parse-time diagnostics from a permissive load.  Rules that
  // detect defects dropped during recovery (duplicate drivers) read these;
  // nullptr means "analysis of an in-memory netlist, no parse facts".
  const diag::Diagnostics* parse_diags = nullptr;

  // Precomputed dataflow facts / domain analysis (the Session passes its
  // ArtifactCache-backed stage results here).  nullptr => rules that need
  // them compute once per run into the mutable lazy slots below, via
  // dataflow_facts() / domain_analysis().  Rules stay stateless: all per-run
  // state lives in this context.
  const DataflowFacts* dataflow = nullptr;
  const DomainAnalysis* domains = nullptr;
  mutable std::shared_ptr<const DataflowFacts> lazy_dataflow{};
  mutable std::shared_ptr<const DomainAnalysis> lazy_domains{};
};

// Shared-fact accessors: the precomputed pointer when present, else a
// lazily-computed (and context-cached) run of the engine with this context's
// options.  analyze() runs rules serially, so the lazy fill needs no lock.
const DataflowFacts& dataflow_facts(const AnalysisContext& context);
const DomainAnalysis& domain_analysis(const AnalysisContext& context);

class AnalysisRule {
 public:
  virtual ~AnalysisRule() = default;
  virtual const RuleInfo& info() const = 0;
  virtual void run(const AnalysisContext& context,
                   std::vector<Finding>& out) const = 0;
};

}  // namespace netrev::analysis
