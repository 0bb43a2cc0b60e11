// The paper's word-identification procedure ("Ours" in Table 1): Figure 2's
// pipeline — potential bits (§2.2), partial matching into subgroups (§2.3),
// relevant control signals (§2.4), then iterative value assignment + virtual
// circuit reduction until the subgroup's bits become fully similar (§2.5).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exec/degrade.h"
#include "netlist/netlist.h"
#include "wordrec/options.h"
#include "wordrec/word.h"

namespace netrev::wordrec {

struct IdentifyStats {
  std::size_t groups = 0;
  std::size_t subgroups = 0;
  std::size_t partial_subgroups = 0;       // needed reduction attempts
  std::size_t control_signal_candidates = 0;
  std::size_t reduction_trials = 0;        // propagate+rehash attempts
  std::size_t unified_subgroups = 0;       // words recovered via reduction
};

// A word recovered through control-signal reduction, with the assignment
// that unified it (for reporting and for handing the reduced circuit to
// downstream tools).
struct UnifiedWord {
  std::vector<netlist::NetId> bits;
  std::vector<std::pair<netlist::NetId, bool>> assignment;
};

struct IdentifyResult {
  WordSet words;
  // Distinct control signals participating in successful unifications —
  // Table 1's "#Control Signals" column.
  std::vector<netlist::NetId> used_control_signals;
  std::vector<UnifiedWord> unified;
  IdentifyStats stats;

  // Degradation record (see exec/degrade.h and wordrec/degrade.h).
  // identify_words() itself always reports kFull; the ladder runner fills
  // these in when a deadline or work budget tripped and a cheaper rung
  // answered instead.  Both strings are deterministic (no wall-clock data),
  // so degraded results stay byte-stable across job counts and reruns.
  exec::DegradeLevel degrade_level = exec::DegradeLevel::kFull;
  std::string degrade_stage;   // rung that first tripped ("" when kFull)
  std::string degrade_reason;  // the trip error's message ("" when kFull)

  bool degraded() const {
    return degrade_level != exec::DegradeLevel::kFull;
  }
};

// Runs a mandatory structural check first: throws
// analysis::StructuralDefectError (naming the cycle) if the netlist has
// combinational cycles, instead of handing them to hashing.  The check reads
// the levelization of the view (options.compact, or one built here) and
// runs the naming SCC pass only on a cyclic design.
// Damaged inputs should go through netlist::repair and
// analysis::break_combinational_cycles before identification.
IdentifyResult identify_words(const netlist::Netlist& nl,
                              const Options& options = {});

}  // namespace netrev::wordrec
