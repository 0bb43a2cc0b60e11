// The design-wide trial table: every §2.5 reduction trial of one
// identify_words() run, evaluated with each distinct seed set propagated
// once.
//
// Trials are keyed by their seed set, so a set that several subgroups try
// is propagated once.  A *unit* is one literal, the first seed of the sets
// it evaluates: its closure is computed once, and each multi-seed set
// extends it with its remaining seeds (propagate_more), evaluates, and
// undoes the extension (AssignmentMap::truncate).  When a unit's literal
// implies another unit's literal in one step (one_step_implications), that
// unit is its parent, and its closure is the parent's closure extended with
// its own literal.  The parents form a forest; run() walks each tree
// depth-first on its thread's one map, one tree per pool task.  An
// infeasible unit leaves its sets and its whole subtree infeasible without
// propagating them.
//
// Verdicts are exact: every propagation rule is monotone, so a feasible
// closure is the least fixpoint of its seeds and a conflict does not depend
// on the order they go in.  When `l` implies `m` in one step, cl(l) is the
// closure of cl(m) plus `l`, and an infeasible `m` makes `l` infeasible;
// the same holds for a seed set and its first seed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "exec/cancel.h"
#include "netlist/compact.h"
#include "wordrec/assignment.h"

namespace netrev::wordrec {

class TrialTable {
 public:
  using Seed = std::pair<netlist::NetId, bool>;
  // Decides one feasible trial under its closure, held in the map.  Called
  // from pool workers, once per feasible trial.
  using Verdict =
      std::function<bool(std::size_t trial, const AssignmentMap& closure)>;

  // Appends a trial with these seeds (at least one); returns its index.
  std::size_t add(std::span<const Seed> seeds);

  // Evaluates every trial over `view`: feasible(t) says whether its seeds
  // propagate without a conflict, and unifies(t) is `verdict`'s answer for
  // a feasible trial (false otherwise).  Polls `checkpoint` once per unit.
  // Adds the time of its propagations to stage.propagate_ns, of its
  // verdicts to stage.rehash_ns, and of both to stage.reduction_ns, and
  // the nets it assigns to propagated_nets.  The units and the forest live
  // only for the call.
  void run(const netlist::CompactView& view,
           const exec::Checkpoint& checkpoint, const Verdict& verdict);

  std::size_t size() const { return trial_begin_.size() - 1; }
  std::span<const Seed> seeds(std::size_t trial) const {
    return std::span(seeds_).subspan(
        trial_begin_[trial], trial_begin_[trial + 1] - trial_begin_[trial]);
  }
  bool feasible(std::size_t trial) const { return feasible_[trial] != 0; }
  bool unifies(std::size_t trial) const { return unifies_[trial] != 0; }

 private:
  struct Forest;

  void walk(const Forest& forest, std::uint32_t root,
            const netlist::CompactView& view,
            const exec::Checkpoint& checkpoint, const Verdict& verdict);
  std::size_t evaluate(const Forest& forest, std::uint32_t set,
                       AssignmentMap& map, const netlist::CompactView& view,
                       const Verdict& verdict);

  std::vector<Seed> seeds_;  // every trial's seeds, in trial order
  std::vector<std::uint32_t> trial_begin_{0};  // trial t: [begin[t], begin[t+1])
  std::vector<std::uint8_t> feasible_;  // per trial verdicts, each written
  std::vector<std::uint8_t> unifies_;   // by one walk
};

}  // namespace netrev::wordrec
