#include "wordrec/identify.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/resource_guard.h"
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
#include "wordrec/trial_table.h"

namespace netrev::wordrec {

using netlist::NetId;
using netlist::Netlist;

namespace {

using Seed = std::pair<NetId, bool>;

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
// order, appended to `trials` until it holds kMaxAssignmentTrialsPerSubgroup.
void enumerate_trials(const std::vector<NetId>& signals,
                      const std::vector<std::vector<bool>>& values_per_signal,
                      std::size_t k, std::vector<std::vector<Seed>>& trials) {
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
      if (trials.size() >= kMaxAssignmentTrialsPerSubgroup) return;
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

// A partial subgroup with control signals, waiting for the trial table.
// Its fallback words are already in its group's words, and hold its bits
// in order; the resolve pass swaps them for one word if a trial unifies it.
struct PendingSubgroup {
  std::uint32_t group = 0;
  std::uint32_t first_word = 0;  // its fallback words in the group's words
  std::uint32_t word_count = 0;
  std::uint32_t trace_at = 0;    // where its trial records go (traced runs)
  std::uint32_t trial_begin = 0;  // its trials in the table, in
  std::uint32_t trial_end = 0;    // enumeration order
};

// A pending subgroup as the group pass leaves it: its record, group and
// trial range still unset, and its trials in enumeration order.
struct GroupPending {
  PendingSubgroup subgroup;
  std::vector<std::vector<Seed>> trials;
};

// Everything the group pass computes for one potential-bit group.  Groups
// are processed independently (possibly on pool workers) into one of these,
// and the per-group outcomes are merged in group index order so the final
// IdentifyResult is byte-identical at any job count.  The giant designs
// have hundreds of thousands of groups, nearly all single bits without a
// pending subgroup, so an outcome is kept small: three counters, the
// words, and a pointer that is null for those groups.
struct GroupOutcome {
  std::uint32_t subgroups = 0;
  std::uint32_t partial_subgroups = 0;
  std::uint32_t control_signal_candidates = 0;
  std::vector<Word> words;
  std::unique_ptr<std::vector<GroupPending>> pending;  // in subgroup order
};

// `budget`, when non-null, is what control-signal search's cone walks
// charge.  `trace`, when non-null, receives this group's trace records in
// decision order, up to the trials of each pending subgroup.
GroupOutcome process_group(const Netlist& nl, const ConeHasher& hasher,
                           const PotentialBitGroup& group,
                           const Options& options, WorkBudget* budget,
                           std::vector<TraceRecord>* trace) {
  GroupOutcome outcome;

  std::vector<BitSignature> signatures(group.size());
  {
    // Per-bit cone hashing is embarrassingly parallel.  Nested calls (when
    // groups themselves run on workers) execute inline — the top-level
    // group parallelism already saturates the pool.
    perf::ScopedWork work(perf::counter<"stage.hashing_ns">());
    parallel_for(
        0, group.size(),
        [&](std::size_t i) { signatures[i] = hasher.signature(group[i]); },
        /*grain=*/4);
  }

  std::vector<Subgroup> subgroups;
  {
    perf::ScopedWork work(perf::counter<"stage.matching_ns">());
    subgroups =
        form_subgroups(group, signatures, /*require_full_match=*/false);
  }
  outcome.subgroups = static_cast<std::uint32_t>(subgroups.size());

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
    ++outcome.partial_subgroups;
    if (trace != nullptr)
      trace->push_back(TraceRecord{
          TraceRecord::Kind::kPartialSubgroup, subgroup.bits, {}, false});

    // With no assignments allowed (Base, identify_words_baseline) no trial
    // can run: the control-signal search is skipped and the subgroup falls
    // back to full-match segmentation below.
    std::vector<NetId> signals;
    std::vector<std::vector<bool>> values_per_signal;
    if (options.max_simultaneous_assignments > 0) {
      perf::ScopedWork work(perf::counter<"stage.control_ns">());
      // The dissimilar region comes from the cones control extraction
      // walks: every net of the recorded dissimilar subtrees, sorted.
      std::vector<std::uint32_t> region;
      signals = find_relevant_control_signals(nl, subgroup, options, &region,
                                              budget);
      outcome.control_signal_candidates +=
          static_cast<std::uint32_t>(signals.size());
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
      enumerate_trials(signals, values_per_signal, k, trials);
      if (trials.size() >= kMaxAssignmentTrialsPerSubgroup) break;
    }

    // The trial table decides the subgroup; until then its words are the
    // fallback segmentation.
    PendingSubgroup pending;
    pending.first_word = static_cast<std::uint32_t>(outcome.words.size());
    emit_fallback_words(subgroup, sub_signatures, outcome.words);
    pending.word_count =
        static_cast<std::uint32_t>(outcome.words.size() - pending.first_word);
    if (trace != nullptr)
      pending.trace_at = static_cast<std::uint32_t>(trace->size());
    if (!outcome.pending)
      outcome.pending = std::make_unique<std::vector<GroupPending>>();
    outcome.pending->push_back(GroupPending{pending, std::move(trials)});
  }
  return outcome;
}

// True iff every bit of `words` (a pending subgroup's bits, in order) stays
// non-constant under `map` and all its signatures become equal with at least
// one subtree left.
bool unifies_under(const ConeHasher& hasher, std::span<const Word> words,
                   const AssignmentMap& map) {
  std::optional<BitSignature> first;
  for (const Word& word : words) {
    for (NetId bit : word.bits) {
      BitSignature sig = hasher.signature(bit, &map);
      if (!sig.root_type.has_value()) return false;  // a bit became constant
      if (!first) {
        first = std::move(sig);
      } else if (!first->structurally_equal(sig)) {
        return false;
      }
    }
  }
  // A word needs at least one similar subtree left after reduction.
  return first.has_value() && !first->subtrees.empty();
}

// A pending subgroup's words: its bits, in order.
std::span<const Word> words_of(const PendingSubgroup& pending,
                               const std::vector<GroupOutcome>& outcomes) {
  return std::span(outcomes[pending.group].words)
      .subspan(pending.first_word, pending.word_count);
}

// The bits of a pending subgroup, from its fallback words.
std::vector<NetId> bits_of(std::span<const Word> words) {
  std::vector<NetId> bits;
  for (const Word& word : words)
    bits.insert(bits.end(), word.bits.begin(), word.bits.end());
  return bits;
}

// The resolve pass: merges the group outcomes into `result` in group index
// order, with each group's trace records into `trace` (traced runs).  Each
// pending subgroup takes its first unifying trial in enumeration order and
// becomes one word, or keeps its fallback words; its trial records run up
// to that winner.
void resolve(std::vector<GroupOutcome>& outcomes,
             std::vector<std::vector<TraceRecord>>& traces,
             std::span<const PendingSubgroup> pending,
             const TrialTable& table, IdentifyResult& result,
             IdentifyTrace* trace) {
  std::unordered_set<NetId> used_signals;
  std::size_t next = 0;  // the first pending subgroup not yet resolved
  for (std::size_t g = 0; g < outcomes.size(); ++g) {
    GroupOutcome& outcome = outcomes[g];
    result.stats.subgroups += outcome.subgroups;
    result.stats.partial_subgroups += outcome.partial_subgroups;
    result.stats.control_signal_candidates += outcome.control_signal_candidates;
    std::vector<TraceRecord>* const records =
        traces.empty() ? nullptr : &traces[g];
    // Moves the group's words, and its records in traced runs, up to `end`.
    std::size_t word = 0, record = 0;
    const auto emit_words = [&](std::size_t end) {
      for (; word < end; ++word)
        result.words.words.push_back(std::move(outcome.words[word]));
    };
    const auto emit_records = [&](std::size_t end) {
      if (records == nullptr) return;
      for (; record < end; ++record)
        trace->records.push_back(std::move((*records)[record]));
    };
    for (; next < pending.size() && pending[next].group == g; ++next) {
      const PendingSubgroup& subgroup = pending[next];
      emit_words(subgroup.first_word);
      emit_records(subgroup.trace_at);

      std::optional<std::size_t> winner;
      for (std::size_t t = subgroup.trial_begin;
           t < subgroup.trial_end && !winner; ++t) {
        if (records != nullptr) {
          const std::span<const Seed> seeds = table.seeds(t);
          trace->records.push_back(TraceRecord{
              TraceRecord::Kind::kTrial, {}, {seeds.begin(), seeds.end()},
              table.feasible(t)});
        }
        if (table.unifies(t)) winner = t;
      }
      // reduction_trials counts the winning trial's 1-based index (or all
      // trials if none wins), as a serial early-exit search would.
      result.stats.reduction_trials +=
          (winner ? *winner + 1 : subgroup.trial_end) - subgroup.trial_begin;

      const std::span<const Word> words = words_of(subgroup, outcomes);
      if (!winner) {
        if (records != nullptr)
          trace->records.push_back(TraceRecord{
              TraceRecord::Kind::kFallback, bits_of(words), {}, false});
        emit_words(word + words.size());
        continue;
      }
      Word unified_word;
      unified_word.bits = bits_of(words);
      word += words.size();
      const std::span<const Seed> seeds = table.seeds(*winner);
      const std::vector<Seed> winning(seeds.begin(), seeds.end());
      ++result.stats.unified_subgroups;
      if (records != nullptr)
        trace->records.push_back(TraceRecord{
            TraceRecord::Kind::kUnified, unified_word.bits, winning, true});
      for (const Seed& seed : winning) used_signals.insert(seed.first);
      result.unified.push_back(UnifiedWord{unified_word.bits, winning});
      result.words.words.push_back(std::move(unified_word));
    }
    emit_words(outcome.words.size());
    if (records != nullptr) emit_records(records->size());
  }

  result.used_control_signals.assign(used_signals.begin(), used_signals.end());
  std::sort(result.used_control_signals.begin(),
            result.used_control_signals.end());
}

}  // namespace

IdentifyResult identify_words(const Netlist& nl, const Options& options_in) {
  perf::Stage stage("identify");
  exec::chaos_point("identify");

  // The cone-work resource guard: the cone walks of control-signal search
  // charge this run's own budget, so a runaway region aborts with
  // ResourceLimitError instead of hanging.  An armed checkpoint also routes
  // through the budget (strided polls per visited net), making those walks
  // cancellable.  Cone hashing does not charge it, so max_cone_work does not
  // bound hashing.  With neither a limit nor an armed checkpoint the walks
  // charge nothing.
  Options options = options_in;
  // Both locals share this frame's lifetime, so the budget's non-owning
  // checkpoint pointer stays valid for the whole run.
  WorkBudget budget(options.max_cone_work);
  budget.set_checkpoint(&options.checkpoint);
  WorkBudget* const cone_budget =
      budget.limited() || options.checkpoint.armed() ? &budget : nullptr;

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
    local_constant_mask =
        analysis::run_dataflow(*options.compact, options.checkpoint)
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

  // Three passes.  The group pass processes groups independently — the
  // pipeline's main parallel axis — up to each partial subgroup's trials.
  // The trial table then evaluates every trial of the design, and the
  // resolve pass merges the outcomes in group index order, taking each
  // pending subgroup's first unifying trial in enumeration order.  That
  // makes the words list, the unified list, every statistic and the trace
  // byte-identical at any job count.  Each group buffers its trace records
  // in its own slot; the slots exist only in traced runs, since an empty
  // vector per group would cost megabytes on the giant designs.
  std::vector<GroupOutcome> outcomes(groups.size());
  std::vector<std::vector<TraceRecord>> traces(
      options.trace != nullptr ? groups.size() : 0);
  {
    perf::Stage groups_stage("groups");
    parallel_for(
        0, groups.size(),
        [&](std::size_t g) {
          options.checkpoint.poll();
          outcomes[g] =
              process_group(nl, hasher, groups[g], options, cone_budget,
                            traces.empty() ? nullptr : &traces[g]);
        },
        // Most groups are single bits, and each claim takes the job's shard
        // lock, so groups are claimed 64 at a time.
        /*grain=*/64);
  }

  // The trial table decides every trial of the design, each distinct seed
  // set once, and rehashes the pending subgroup that tries it.
  TrialTable table;
  std::vector<PendingSubgroup> pending;  // design-wide, in group order
  {
    perf::Stage trials_stage("trials");
    std::vector<std::uint32_t> owner;  // per trial: its index in `pending`
    for (std::size_t g = 0; g < outcomes.size(); ++g) {
      if (!outcomes[g].pending) continue;
      for (auto& [subgroup, trials] : *outcomes[g].pending) {
        subgroup.group = static_cast<std::uint32_t>(g);
        subgroup.trial_begin = static_cast<std::uint32_t>(table.size());
        for (const std::vector<Seed>& seeds : trials) {
          table.add(seeds);
          owner.push_back(static_cast<std::uint32_t>(pending.size()));
        }
        subgroup.trial_end = static_cast<std::uint32_t>(table.size());
        pending.push_back(subgroup);
      }
      outcomes[g].pending.reset();
    }
    table.run(*options.compact, options.checkpoint,
              [&](std::size_t trial, const AssignmentMap& closure) {
                return unifies_under(
                    hasher, words_of(pending[owner[trial]], outcomes),
                    closure);
              });
  }

  perf::Stage merge_stage("merge");
  resolve(outcomes, traces, pending, table, result, options.trace);
  return result;
}

WordSet identify_words_baseline(const Netlist& nl, const Options& options_in) {
  Options options = options_in;
  options.max_simultaneous_assignments = 0;
  options.trace = nullptr;
  return identify_words(nl, options).words;
}

}  // namespace netrev::wordrec
