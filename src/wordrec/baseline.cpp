#include "wordrec/baseline.h"

#include "common/resource_guard.h"
#include "wordrec/grouping.h"
#include "wordrec/matching.h"

namespace netrev::wordrec {

WordSet identify_words_baseline(const netlist::Netlist& nl,
                                const Options& options_in) {
  // Same budget/checkpoint wiring as identify_words(), though it guards
  // nothing yet: only control-signal search charges the budget, and the
  // baseline only hashes, so an armed checkpoint is polled once per group
  // here.  The baseline has no ladder of its own — it IS a degradation
  // rung — so trips propagate to the ladder runner.
  WorkBudget local_budget(options_in.max_cone_work);
  Options options = options_in;
  if (options.cone_budget == nullptr &&
      (options.max_cone_work != 0 || options.checkpoint.armed())) {
    local_budget.set_checkpoint(&options.checkpoint);
    options.cone_budget = &local_budget;
  }

  const ConeHasher hasher(nl, options);
  WordSet result;
  std::vector<PotentialBitGroup> groups = potential_bit_groups(nl);
  if (options.cross_group_checking)
    groups = merge_groups_across_gaps(nl, std::move(groups),
                                      options.cross_group_max_gap);
  for (const PotentialBitGroup& group : groups) {
    options.checkpoint.poll();
    std::vector<BitSignature> signatures;
    signatures.reserve(group.size());
    for (netlist::NetId bit : group) signatures.push_back(hasher.signature(bit));
    for (Subgroup& sg : form_subgroups(group, signatures,
                                       /*require_full_match=*/true)) {
      Word word;
      word.bits = std::move(sg.bits);
      result.words.push_back(std::move(word));
    }
  }
  return result;
}

}  // namespace netrev::wordrec
