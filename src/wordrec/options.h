// Tunables of the word-identification procedure.  Defaults follow the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/cancel.h"

namespace netrev::netlist {
class CompactView;
}

namespace netrev::wordrec {

struct IdentifyTrace;

// Safety valves so adversarial netlists cannot blow up the search: a
// partially-matching subgroup keeps at most this many control signals (the
// lowest net ids) and runs at most this many assignment trials.
inline constexpr std::size_t kMaxControlSignalsPerSubgroup = 8;
inline constexpr std::size_t kMaxAssignmentTrialsPerSubgroup = 128;

struct Options {
  // Optional, non-owning: when set, identify_words() records its decisions
  // (subgroups, control signals, trials, outcomes) into this trace.  See
  // wordrec/trace.h.
  IdentifyTrace* trace = nullptr;

  // Levels of logic gates explored in a bit's fanin cone (§2.1: "fanin-cone
  // down to four levels of logic gates"; [6] uses 2 to 4).
  std::size_t cone_depth = 4;

  // Maximum number of control signals assigned simultaneously (§2.5: single
  // signals first, then "feasible assignments to any two identified control
  // signals").  The paper stops at 2 and names >2 as future work; raising
  // this implements that extension.
  std::size_t max_simultaneous_assignments = 2;

  // Distinguish leaf kinds in hash keys (primary input vs flop output vs
  // depth cut vs constant).  The paper's keys record gate types only; leaf
  // tagging is a refinement that avoids false merges across different
  // sequential boundaries.  Benchmarked as an ablation (bench/ablation).
  bool distinguish_leaf_kinds = true;

  // Cross-checking among adjacent groups (§2.2 names this as the paper's
  // future improvement): when a stray netlist line splits a run of
  // same-root-type lines, the two runs are rejoined into one potential-bit
  // group if at most `cross_group_max_gap` lines intervene.  Off by default
  // (the paper's evaluated configuration).
  bool cross_group_checking = false;
  static constexpr std::size_t cross_group_max_gap = 2;

  // Ceiling on total cone-traversal work (nets visited across the
  // control-signal search walks of one identify_words() run; cone hashing
  // is not metered); 0 = unlimited.  Exceeding it aborts
  // the run with ResourceLimitError — a resource guard against runaway or
  // adversarial inputs, not a tuning knob.
  std::size_t max_cone_work = 0;

  // Cancellation/deadline poll point.  identify_words() polls it per group,
  // subgroup and trial-table unit, and attaches it to the run's cone
  // budget so the walks that charge it poll too (strided).  Observation-only:
  // excluded from the options fingerprint; degradation outcomes are keyed
  // separately (see RunConfig::exec_fingerprint).
  exec::Checkpoint checkpoint;

  // Opt-in dataflow pruning (--use-dataflow): drop provably-constant nets
  // from candidate control signals (a constant can never be toggled, so it
  // can never separate dissimilar subtrees).  Guaranteed conservative: the
  // pruned candidate list is exactly the default list minus nets the
  // ternary engine proves constant, so with the knob off — or on a design
  // with no derived constants — output is byte-identical to the default.
  bool use_dataflow = false;

  // Optional, non-owning prebuilt view of the netlist being analysed (the
  // Session passes its cached artifact).  Cone walks, hashing recursion and
  // the containment/dominance filters all iterate its CSR arrays; when this
  // is null, identify_words(), ConeHasher and find_relevant_control_signals
  // build a view themselves.  Derived purely from the netlist, so excluded
  // from the fingerprint like constant_nets below.
  const netlist::CompactView* compact = nullptr;

  // Optional, non-owning: per-net "provably constant at every cycle" mask,
  // indexed by NetId (analysis::DataflowFacts::constant_mask()).  Set by the
  // Session from its cached dataflow stage; identify_words() computes it
  // on demand when use_dataflow is set and this is null.  Derived purely
  // from the netlist, so it is not part of the options fingerprint
  // (use_dataflow is).
  const std::vector<std::uint8_t>* constant_nets = nullptr;
};

}  // namespace netrev::wordrec
