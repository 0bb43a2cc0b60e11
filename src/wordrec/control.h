// Relevant control-signal identification (§2.4).
//
// For a subgroup with partially-matching bits, the candidate control signals
// are the nets common to *all* recorded dissimilar subtrees, minus any net
// lying in the fanin cone of another net of that common set (its effect on
// reduction is already captured by the dominating net — the paper's U223 vs
// U201 example).  Signals appearing only in matching subtrees are never
// candidates: removing them cannot create new structural similarity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/resource_guard.h"
#include "netlist/netlist.h"
#include "wordrec/matching.h"
#include "wordrec/options.h"

namespace netrev::wordrec {

// Returns the relevant control signals for the dissimilar subtrees rooted at
// `dissimilar_roots` (depth-limited to the subtree depth implied by
// options.cone_depth).  Deterministic order (ascending net id).  Empty when
// fewer than one dissimilar subtree exists or nothing is common.  Walks
// options.compact (a view of `nl`) when set, else a view built per call.
//
// When `region` is non-null it is replaced with the dissimilar region: every
// net of the walked subtrees, in ascending order, without duplicates (empty
// when there are no roots).  The §2.5 trials draw each signal's candidate
// values from the gates it feeds inside this region, and taking it from
// here spares a second walk of the same cones.
//
// When `budget` is non-null every cone walk charges it one unit per visited
// net (and polls its checkpoint); identify_words() passes its run's budget.
// At most kMaxControlSignalsPerSubgroup signals are returned.
std::vector<netlist::NetId> find_relevant_control_signals(
    const netlist::Netlist& nl, std::span<const netlist::NetId> dissimilar_roots,
    const Options& options, std::vector<std::uint32_t>* region = nullptr,
    WorkBudget* budget = nullptr);

// Convenience overload operating on a subgroup (its distinct dissimilar
// roots).
std::vector<netlist::NetId> find_relevant_control_signals(
    const netlist::Netlist& nl, const Subgroup& subgroup,
    const Options& options, std::vector<std::uint32_t>* region = nullptr,
    WorkBudget* budget = nullptr);

}  // namespace netrev::wordrec
