#include "wordrec/degrade.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/resource_guard.h"
#include "exec/cancel.h"
#include "wordrec/baseline.h"
#include "wordrec/grouping.h"

namespace netrev::wordrec {

namespace {

using exec::DegradeLevel;

// The reduced-depth rung: a strictly cheaper configuration of the same
// knobs.
Options reduced_depth_options(const Options& base) {
  Options options = base;
  options.cone_depth = std::min<std::size_t>(options.cone_depth, 2);
  options.max_simultaneous_assignments =
      std::min<std::size_t>(options.max_simultaneous_assignments, 1);
  return options;
}

// Each rung's identify_words call charges a fresh cone budget, so a budget
// exhausted by a higher rung cannot pre-trip a lower one.
IdentifyResult run_rung(const netlist::Netlist& nl, const Options& base,
                        DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kFull:
      return identify_words(nl, base);
    case DegradeLevel::kReducedDepth:
      return identify_words(nl, reduced_depth_options(base));
    case DegradeLevel::kBaseline: {
      IdentifyResult result;
      result.words = identify_words_baseline(nl, base);
      return result;
    }
    case DegradeLevel::kGroupsOnly: {
      // No cone walks, no hashing, no polling: the §2.2 line scan alone.
      // Every group becomes a word (singletons included) so the result is
      // still a partition of the candidate nets, as the metrics expect.
      IdentifyResult result;
      std::vector<PotentialBitGroup> groups = potential_bit_groups(nl);
      result.stats.groups = groups.size();
      result.words.words.reserve(groups.size());
      for (PotentialBitGroup& group : groups) {
        Word word;
        word.bits = std::move(group);
        result.words.words.push_back(std::move(word));
      }
      return result;
    }
  }
  return identify_words(nl, base);  // unreachable
}

}  // namespace

IdentifyResult identify_words_degradable(const netlist::Netlist& nl,
                                         const Options& options,
                                         const exec::DegradePolicy& policy) {
  const bool ladder_active = policy.enabled &&
                             policy.floor != DegradeLevel::kFull &&
                             options.trace == nullptr;
  if (!ladder_active) return identify_words(nl, options);

  DegradeLevel level = DegradeLevel::kFull;
  std::string tripped_stage;
  std::string tripped_reason;
  for (;;) {
    try {
      IdentifyResult result = run_rung(nl, options, level);
      result.degrade_level = level;
      result.degrade_stage = tripped_stage;
      result.degrade_reason = tripped_reason;
      return result;
    } catch (const exec::DeadlineExceededError& e) {
      if (level >= policy.floor) throw;
      if (tripped_stage.empty()) {
        tripped_stage = exec::degrade_level_name(level);
        tripped_reason = e.what();
      }
    } catch (const ResourceLimitError& e) {
      if (level >= policy.floor) throw;
      if (tripped_stage.empty()) {
        tripped_stage = exec::degrade_level_name(level);
        tripped_reason = e.what();
      }
    }
    level = static_cast<DegradeLevel>(static_cast<std::uint8_t>(level) + 1);
  }
}

void report_degradation(const IdentifyResult& result,
                        diag::Diagnostics& diags) {
  if (!result.degraded()) return;
  diags.warning("identification degraded to '" +
                std::string(exec::degrade_level_name(result.degrade_level)) +
                "' (rung '" + result.degrade_stage +
                "' tripped: " + result.degrade_reason + ")");
}

}  // namespace netrev::wordrec
