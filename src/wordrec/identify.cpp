#include "wordrec/identify.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/thread_pool.h"
#include "exec/chaos.h"
#include "netlist/compact.h"
#include "perf/profile.h"
#include "wordrec/assignment.h"
#include "wordrec/baseline.h"
#include "wordrec/control.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/matching.h"
#include "wordrec/trace.h"

namespace netrev::wordrec {

using netlist::NetId;
using netlist::Netlist;

namespace {

using Seed = std::pair<NetId, bool>;

// Trials are evaluated in fixed chunks of this many (a chunk's trials may
// run concurrently; the winner is the lowest-index success).  The chunk size
// is independent of the job count, so which trials get evaluated — and every
// derived statistic — is too.
constexpr std::size_t kTrialChunk = 8;

// Candidate constant values for one control signal: the controlling values
// of the gates it feeds inside the dissimilar region (§2.5: "the assigned
// value to a control signal will be the controlling value to one of the
// logic gates that the control signal is feeding into").  `region` is
// sorted.
std::vector<bool> candidate_values(const netlist::CompactView& view,
                                   NetId signal,
                                   const std::vector<std::uint32_t>& region) {
  bool has_zero = false, has_one = false;
  for (std::uint32_t g : view.fanout(signal.value())) {
    if (!std::binary_search(region.begin(), region.end(), view.gate_output(g)))
      continue;
    const auto cv = controlling_value(view.gate_type(g));
    if (!cv) continue;
    (*cv ? has_one : has_zero) = true;
  }
  std::vector<bool> values;
  if (has_zero) values.push_back(false);
  if (has_one) values.push_back(true);
  return values;
}

// All assignment trials of exactly `k` distinct signals, in deterministic
// order, appended to `trials`.
void enumerate_trials(const std::vector<NetId>& signals,
                      const std::vector<std::vector<bool>>& values_per_signal,
                      std::size_t k, std::size_t max_trials,
                      std::vector<std::vector<Seed>>& trials) {
  std::vector<std::size_t> combo(k);
  std::vector<Seed> current(k);

  // Iterate over k-combinations of signal indices.
  const std::size_t n = signals.size();
  if (k == 0 || k > n) return;
  for (std::size_t i = 0; i < k; ++i) combo[i] = i;
  while (true) {
    // Cartesian product over the chosen signals' candidate values.
    std::vector<std::size_t> value_index(k, 0);
    bool values_exhausted = false;
    // Skip combos where some signal has no candidate values.
    bool viable = true;
    for (std::size_t i = 0; i < k; ++i)
      if (values_per_signal[combo[i]].empty()) viable = false;
    while (viable && !values_exhausted) {
      for (std::size_t i = 0; i < k; ++i)
        current[i] = {signals[combo[i]],
                      values_per_signal[combo[i]][value_index[i]]};
      trials.push_back(current);
      if (trials.size() >= max_trials) return;
      // Increment the mixed-radix value counter.
      std::size_t pos = 0;
      while (pos < k) {
        if (++value_index[pos] < values_per_signal[combo[pos]].size()) break;
        value_index[pos] = 0;
        ++pos;
      }
      values_exhausted = pos == k;
    }
    // Next combination (lexicographic).
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (combo[i] != i + n - k) {
        ++combo[i];
        for (std::size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

// Emit base-style words for a subgroup that could not be unified: re-segment
// its bits by full-match adjacency, exactly as Base does, so the result is
// never worse than Base on this span.  `signatures` is parallel to the
// subgroup's bits.
void emit_fallback_words(const Subgroup& subgroup,
                         std::span<const BitSignature> signatures,
                         std::vector<Word>& out) {
  std::vector<Subgroup> segments = form_subgroups(
      subgroup.bits, signatures, /*require_full_match=*/true);
  for (Subgroup& segment : segments) {
    Word word;
    word.bits = std::move(segment.bits);
    out.push_back(std::move(word));
  }
}

// One trial's verdict: propagate the assignment and re-hash the subgroup's
// bits under it; true iff every bit stays non-constant and all signatures
// become equal with at least one subtree left.  `feasible` reports whether
// the propagation was conflict-free.
bool trial_unifies(const ConeHasher& hasher, const Subgroup& subgroup,
                   const std::vector<Seed>& trial, bool& feasible) {
  // One dense map per thread, reset by each trial (the trials of a chunk run
  // on pool workers; a thread runs one trial at a time).
  static thread_local AssignmentMap map;
  {
    perf::ScopedWork work("stage.propagate_ns");
    feasible = propagate(*hasher.options().compact, trial, map);
  }
  if (!feasible) return false;

  perf::ScopedWork work("stage.rehash_ns");
  std::optional<BitSignature> first;
  for (NetId bit : subgroup.bits) {
    BitSignature sig = hasher.signature(bit, &map);
    if (!sig.root_type.has_value()) return false;  // a bit became constant
    if (!first) {
      first = std::move(sig);
    } else if (!first->structurally_equal(sig)) {
      return false;
    }
  }
  // A word needs at least one similar subtree left after reduction.
  return first.has_value() && !first->subtrees.empty();
}

// Everything identify_words computes for one potential-bit group.  Groups
// are processed independently (possibly on pool workers) into one of these,
// and the per-group outcomes are merged in group index order so the final
// IdentifyResult is byte-identical at any job count.
struct GroupOutcome {
  IdentifyStats stats;  // this group's contributions (groups field unused)
  std::vector<Word> words;
  std::vector<UnifiedWord> unified;
};

// `trace`, when non-null, receives this group's trace records in decision
// order.
GroupOutcome process_group(const Netlist& nl, const ConeHasher& hasher,
                           const PotentialBitGroup& group,
                           const Options& options,
                           std::vector<TraceRecord>* trace) {
  GroupOutcome outcome;

  std::vector<BitSignature> signatures(group.size());
  {
    // Per-bit cone hashing is embarrassingly parallel.  Nested calls (when
    // groups themselves run on workers) execute inline — the top-level
    // group parallelism already saturates the pool.
    perf::ScopedWork work("stage.hashing_ns");
    parallel_for(
        0, group.size(),
        [&](std::size_t i) { signatures[i] = hasher.signature(group[i]); },
        /*grain=*/4);
  }

  std::vector<Subgroup> subgroups;
  {
    perf::ScopedWork work("stage.matching_ns");
    subgroups =
        form_subgroups(group, signatures, /*require_full_match=*/false);
  }
  outcome.stats.subgroups += subgroups.size();

  // Subgroups are contiguous runs of the group, in order, so each one's
  // signatures are a slice of the group's.
  std::size_t offset = 0;
  for (Subgroup& subgroup : subgroups) {
    options.checkpoint.poll();
    const auto sub_signatures =
        std::span(signatures).subspan(offset, subgroup.bits.size());
    offset += subgroup.bits.size();
    if (subgroup.fully_similar) {
      Word word;
      word.bits = std::move(subgroup.bits);
      outcome.words.push_back(std::move(word));
      continue;
    }
    ++outcome.stats.partial_subgroups;
    if (trace != nullptr)
      trace->push_back(TraceRecord{
          TraceRecord::Kind::kPartialSubgroup, subgroup.bits, {}, false});

    // With no assignments allowed (Base, identify_words_baseline) no trial
    // can run: the control-signal search is skipped and the subgroup falls
    // back to full-match segmentation below.
    std::vector<NetId> signals;
    std::vector<std::vector<bool>> values_per_signal;
    if (options.max_simultaneous_assignments > 0) {
      perf::ScopedWork work("stage.control_ns");
      // The dissimilar region comes from the cones control extraction
      // walks: every net of the recorded dissimilar subtrees, sorted.
      std::vector<std::uint32_t> region;
      signals = find_relevant_control_signals(nl, subgroup, options, &region);
      outcome.stats.control_signal_candidates += signals.size();
      if (trace != nullptr)
        trace->push_back(TraceRecord{
            TraceRecord::Kind::kControlSignals, signals, {}, false});
      values_per_signal.reserve(signals.size());
      for (NetId signal : signals)
        values_per_signal.push_back(
            candidate_values(*options.compact, signal, region));
    }
    if (signals.empty()) {
      if (trace != nullptr)
        trace->push_back(TraceRecord{
            TraceRecord::Kind::kFallback, subgroup.bits, {}, false});
      emit_fallback_words(subgroup, sub_signatures, outcome.words);
      continue;
    }

    std::vector<std::vector<Seed>> trials;
    for (std::size_t k = 1;
         k <= options.max_simultaneous_assignments && k <= signals.size();
         ++k) {
      enumerate_trials(signals, values_per_signal, k,
                       options.max_assignment_trials_per_subgroup, trials);
      if (trials.size() >= options.max_assignment_trials_per_subgroup) break;
    }

    // Find the first trial (in enumeration order) that unifies the subgroup.
    // Each chunk of kTrialChunk trials is evaluated concurrently, then its
    // verdicts are walked in trial order up to the first unifying trial;
    // the walk traces each trial it passes.  reduction_trials counts the
    // winning trial's 1-based index (or all trials if none wins), as a
    // serial early-exit search would, so the statistic and the trace are
    // identical at any job count.
    perf::ScopedWork work("stage.reduction_ns");
    std::optional<std::size_t> winning_index;
    for (std::size_t chunk = 0; chunk < trials.size() && !winning_index;
         chunk += kTrialChunk) {
      options.checkpoint.poll();
      const std::size_t chunk_end =
          std::min(chunk + kTrialChunk, trials.size());
      std::array<bool, kTrialChunk> unifies{};
      std::array<bool, kTrialChunk> feasible{};
      parallel_for(chunk, chunk_end, [&](std::size_t t) {
        unifies[t - chunk] =
            trial_unifies(hasher, subgroup, trials[t], feasible[t - chunk]);
      });
      for (std::size_t t = chunk; t < chunk_end && !winning_index; ++t) {
        if (trace != nullptr)
          trace->push_back(TraceRecord{
              TraceRecord::Kind::kTrial, {}, trials[t], feasible[t - chunk]});
        if (unifies[t - chunk]) winning_index = t;
      }
    }
    outcome.stats.reduction_trials +=
        winning_index ? *winning_index + 1 : trials.size();

    if (winning_index) {
      const std::vector<Seed>& winning = trials[*winning_index];
      ++outcome.stats.unified_subgroups;
      if (trace != nullptr)
        trace->push_back(TraceRecord{
            TraceRecord::Kind::kUnified, subgroup.bits, winning, true});
      UnifiedWord unified;
      unified.bits = subgroup.bits;
      unified.assignment = winning;
      outcome.unified.push_back(std::move(unified));

      Word word;
      word.bits = std::move(subgroup.bits);
      outcome.words.push_back(std::move(word));
    } else {
      if (trace != nullptr)
        trace->push_back(TraceRecord{
            TraceRecord::Kind::kFallback, subgroup.bits, {}, false});
      emit_fallback_words(subgroup, sub_signatures, outcome.words);
    }
  }
  return outcome;
}

}  // namespace

IdentifyResult identify_words(const Netlist& nl, const Options& options_in) {
  perf::Stage stage("identify");
  exec::chaos_point("identify");

  // Wire up the cone-work resource guard: the cone walks of control-signal
  // search charge one shared budget, so a runaway region aborts with
  // ResourceLimitError instead of hanging.  An armed checkpoint also routes
  // through the budget (strided polls per visited net), making those walks
  // cancellable.  Cone hashing does not charge it (ConeHasher never reads
  // cone_budget), so max_cone_work does not bound hashing.
  WorkBudget local_budget(options_in.max_cone_work);
  Options options = options_in;
  if (options.cone_budget == nullptr &&
      (options.max_cone_work != 0 || options.checkpoint.armed())) {
    // Both locals share this frame's lifetime, so the budget's non-owning
    // checkpoint pointer stays valid for the whole run.  Caller-shared
    // budgets are left untouched (the caller owns their wiring).
    local_budget.set_checkpoint(&options.checkpoint);
    options.cone_budget = &local_budget;
  }

  // Data-oriented core: flatten the design once so every cone walk and
  // hashing recursion of this run — and the dataflow engine below — iterates
  // CSR arrays.  Callers that pass a prebuilt view (the Session's cached
  // artifact) skip the build; the view must be installed before the hasher
  // is constructed (it copies options).
  std::optional<netlist::CompactView> local_view;
  if (options.compact == nullptr) {
    perf::Stage compact_stage("compact");
    local_view.emplace(netlist::CompactView::build(nl));
    options.compact = &*local_view;
  }

  // Everything below up to the hasher exists only to set up reduction
  // trials, so a run that allows none (Base) skips it.
  const bool runs_trials = options.max_simultaneous_assignments > 0;

  // Structural check: a combinational cycle would poison constant
  // propagation, so abort with a diagnostic naming the loop instead of
  // computing nonsense.  The view's levelization already answers whether
  // there is one; the SCC pass that names it runs only when there is.
  // Depth-bounded cone hashing terminates on a cycle, so Base needs no
  // check.  Callers with damaged inputs repair first (netlist::repair +
  // analysis::break_combinational_cycles — the CLI's --permissive path).
  if (runs_trials && !options.compact->acyclic())
    analysis::require_acyclic(nl);

  // --use-dataflow without a caller-supplied mask: run the ternary engine
  // here.  The Session passes its ArtifactCache-backed mask instead,
  // skipping this.  Only control-signal search reads the mask.
  std::vector<std::uint8_t> local_constant_mask;
  if (runs_trials && options.use_dataflow &&
      options.constant_nets == nullptr) {
    perf::Stage dataflow_stage("dataflow");
    analysis::DataflowOptions dataflow_options;
    dataflow_options.checkpoint = options.checkpoint;
    local_constant_mask =
        analysis::run_dataflow(*options.compact, dataflow_options)
            .constant_mask();
    options.constant_nets = &local_constant_mask;
  }

  const ConeHasher hasher(nl, options);
  IdentifyResult result;

  std::vector<PotentialBitGroup> groups;
  {
    perf::Stage grouping_stage("grouping");
    groups = potential_bit_groups(nl);
    if (options.cross_group_checking)
      groups = merge_groups_across_gaps(nl, std::move(groups),
                                        options.cross_group_max_gap);
  }
  result.stats.groups = groups.size();

  // Process groups independently — the pipeline's main parallel axis — then
  // merge outcomes in group index order, which makes the words list, the
  // unified list, every statistic and the trace byte-identical at any job
  // count.  Each group buffers its trace records in its own slot; the slots
  // exist only in traced runs, since an empty vector per group would cost
  // megabytes on the giant designs.
  std::vector<GroupOutcome> outcomes(groups.size());
  std::vector<std::vector<TraceRecord>> traces(
      options.trace != nullptr ? groups.size() : 0);
  {
    perf::Stage groups_stage("groups");
    parallel_for(0, groups.size(), [&](std::size_t g) {
      options.checkpoint.poll();
      outcomes[g] = process_group(nl, hasher, groups[g], options,
                                  traces.empty() ? nullptr : &traces[g]);
    });
  }

  perf::Stage merge_stage("merge");
  std::unordered_set<NetId> used_signals;
  for (GroupOutcome& outcome : outcomes) {
    result.stats.subgroups += outcome.stats.subgroups;
    result.stats.partial_subgroups += outcome.stats.partial_subgroups;
    result.stats.control_signal_candidates +=
        outcome.stats.control_signal_candidates;
    result.stats.reduction_trials += outcome.stats.reduction_trials;
    result.stats.unified_subgroups += outcome.stats.unified_subgroups;
    for (Word& word : outcome.words)
      result.words.words.push_back(std::move(word));
    for (UnifiedWord& unified : outcome.unified) {
      for (const Seed& seed : unified.assignment)
        used_signals.insert(seed.first);
      result.unified.push_back(std::move(unified));
    }
  }
  for (std::vector<TraceRecord>& records : traces)
    std::move(records.begin(), records.end(),
              std::back_inserter(options.trace->records));

  result.used_control_signals.assign(used_signals.begin(), used_signals.end());
  std::sort(result.used_control_signals.begin(),
            result.used_control_signals.end());
  return result;
}

WordSet identify_words_baseline(const Netlist& nl, const Options& options_in) {
  Options options = options_in;
  options.max_simultaneous_assignments = 0;
  options.trace = nullptr;
  return identify_words(nl, options).words;
}

}  // namespace netrev::wordrec
