// What makes the trial table exact, and an oracle for the table itself.
//
// identify_words() evaluates every distinct seed set once: a literal's
// closure is built on top of the closure of a literal it implies in one
// step, each seed set extends its first seed's closure with
// propagate_more(), and AssignmentMap::truncate() undoes each extension.
// The properties below check those three steps on seeded random designs.
// The oracle then replays every trial a traced identify_words() run records
// with a from-scratch propagate() and rehash, on the Table 1 profiles and
// on random designs, at several job counts and assignment limits: each
// trial's feasibility flag must agree, and the first unifying trial must be
// the one the trace names.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/cancel.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/random_netlist.h"
#include "wordrec/assignment.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/trace.h"
#include "wordrec/trial_table.h"

namespace netrev::wordrec {
namespace {

using netlist::CompactView;
using netlist::NetId;
using netlist::Netlist;
using Seed = std::pair<NetId, bool>;

Netlist random_design(std::uint64_t design, Rng& rng) {
  netlist::RandomNetlistSpec spec;
  spec.primary_inputs = 2 + rng.next_below(10);
  spec.combinational_gates = 5 + rng.next_below(300);
  spec.flops = rng.next_below(8);
  spec.max_fanin = 2 + rng.next_below(4);
  spec.include_constants = design % 3 == 0;
  spec.seed = design;
  return netlist::random_netlist(spec);
}

std::vector<Seed> random_seeds(const Netlist& nl, Rng& rng,
                               std::size_t count) {
  std::vector<Seed> seeds;
  for (std::size_t k = 0; k < count; ++k)
    seeds.emplace_back(
        NetId(static_cast<std::uint32_t>(rng.next_below(nl.net_count()))),
        rng.next_bool());
  return seeds;
}

// The map's entries as a sorted set of (net, value).
std::vector<Seed> as_set(const AssignmentMap& map) {
  std::vector<Seed> entries(map.entries().begin(), map.entries().end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

// Every net's value, so a restored map can be compared net by net.
std::vector<std::optional<bool>> values(const AssignmentMap& map,
                                        std::size_t net_count) {
  std::vector<std::optional<bool>> out(net_count);
  for (std::size_t n = 0; n < net_count; ++n)
    out[n] = map.value(NetId(static_cast<std::uint32_t>(n)));
  return out;
}

TEST(TrialTableEngine, PropagateMoreReachesTheFromScratchClosure) {
  AssignmentMap more, fresh;  // reused across designs of every size
  std::size_t extended = 0, conflicts = 0;
  for (std::uint64_t design = 1; design <= 240; ++design) {
    Rng rng(design * 104729);
    const Netlist nl = random_design(design, rng);
    const CompactView view = CompactView::build(nl);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<Seed> first = random_seeds(nl, rng, 1 + trial % 2);
      if (!propagate(view, first, more)) continue;
      const std::size_t base = more.size();
      const auto before = values(more, nl.net_count());

      const std::vector<Seed> rest = random_seeds(nl, rng, 1 + trial / 2);
      const bool closed = propagate_more(view, rest, more);
      std::vector<Seed> all = first;
      all.insert(all.end(), rest.begin(), rest.end());
      ASSERT_EQ(closed, propagate(view, all, fresh))
          << "design " << design << " trial " << trial;
      if (closed) {
        EXPECT_EQ(as_set(more), as_set(fresh))
            << "design " << design << " trial " << trial;
        ++extended;
      } else {
        ++conflicts;
      }

      more.truncate(base);
      EXPECT_EQ(more.size(), base);
      EXPECT_EQ(values(more, nl.net_count()), before)
          << "design " << design << " trial " << trial;
    }
  }
  // Both verdicts must come up, or the comparison proves little.
  EXPECT_GT(extended, 100u);
  EXPECT_GT(conflicts, 20u);
}

TEST(TrialTableEngine, TruncateToZeroForgetsEveryValue) {
  Rng rng(17);
  const Netlist nl = random_design(3, rng);
  const CompactView view = CompactView::build(nl);
  AssignmentMap map;
  ASSERT_TRUE(propagate(view, std::vector<Seed>{{NetId(0), true}}, map));
  ASSERT_FALSE(map.empty());
  map.truncate(0);
  EXPECT_TRUE(map.empty());
  for (std::size_t n = 0; n < nl.net_count(); ++n)
    EXPECT_FALSE(map.contains(NetId(static_cast<std::uint32_t>(n))));
  // A truncated map extends like a fresh one.
  AssignmentMap fresh;
  const std::vector<Seed> seeds{{NetId(1), false}};
  EXPECT_EQ(propagate_more(view, seeds, map), propagate(view, seeds, fresh));
  EXPECT_EQ(as_set(map), as_set(fresh));
}

// For every literal l and every m it implies in one step: cl(l) contains
// cl(m), and an infeasible m makes l infeasible.
TEST(TrialTableEngine, OneStepImplicationsNestTheirClosures) {
  AssignmentMap of_l, of_m;
  std::vector<Seed> implied;
  std::size_t pairs = 0, infeasible = 0;
  for (std::uint64_t design = 1; design <= 60; ++design) {
    Rng rng(design * 7919);
    const Netlist nl = random_design(design, rng);
    const CompactView view = CompactView::build(nl);
    for (std::uint32_t net = 0; net < nl.net_count(); ++net) {
      for (const bool value : {false, true}) {
        const Seed l{NetId(net), value};
        const std::vector<Seed> seed_l{l};
        const bool l_feasible = propagate(view, seed_l, of_l);
        implied.clear();
        one_step_implications(view, l, implied);
        for (const Seed& m : implied) {
          ++pairs;
          const std::vector<Seed> seed_m{m};
          const bool m_feasible = propagate(view, seed_m, of_m);
          if (!m_feasible) {
            ++infeasible;
            EXPECT_FALSE(l_feasible) << "design " << design << " net " << net;
            continue;
          }
          if (!l_feasible) continue;
          EXPECT_EQ(of_l.value(m.first), m.second)
              << "design " << design << " net " << net;
          for (const auto& [n, v] : of_m.entries())
            ASSERT_EQ(of_l.value(n), v)
                << "design " << design << " net " << net << " implies "
                << m.first.value();
        }
      }
    }
  }
  EXPECT_GT(pairs, 10000u);
  EXPECT_GT(infeasible, 0u);
}

// --- The table on its own ------------------------------------------------------

// Every trial's verdict against a from-scratch propagate(): the same
// feasibility, and the verdict called once, on the same closure.  The
// trials include every infeasible literal of the design and the literals
// that imply one of them in one step, so units below an infeasible parent
// come up, plus repeated and multi-seed sets.
TEST(TrialTable, VerdictsMatchFromScratchPropagation) {
  std::size_t feasible = 0, infeasible = 0, below_infeasible = 0;
  for (std::uint64_t design = 1; design <= 120; ++design) {
    Rng rng(design * 31337);
    const Netlist nl = random_design(design, rng);
    const CompactView view = CompactView::build(nl);

    AssignmentMap scratch;
    std::vector<Seed> literals, implied;
    std::vector<Seed> infeasible_literals;
    for (std::uint32_t net = 0; net < nl.net_count(); ++net)
      for (const bool value : {false, true})
        if (!propagate(view, std::vector<Seed>{{NetId(net), value}}, scratch))
          infeasible_literals.emplace_back(NetId(net), value);
    for (std::uint32_t net = 0; net < nl.net_count(); ++net) {
      for (const bool value : {false, true}) {
        const Seed l{NetId(net), value};
        implied.clear();
        one_step_implications(view, l, implied);
        const bool implies_infeasible = std::any_of(
            implied.begin(), implied.end(), [&](const Seed& m) {
              return std::find(infeasible_literals.begin(),
                               infeasible_literals.end(),
                               m) != infeasible_literals.end();
            });
        if (implies_infeasible) ++below_infeasible;
        const bool is_infeasible =
            std::find(infeasible_literals.begin(), infeasible_literals.end(),
                      l) != infeasible_literals.end();
        if (implies_infeasible || is_infeasible || rng.next_below(8) == 0)
          literals.push_back(l);
      }
    }
    if (literals.empty()) continue;

    TrialTable table;
    for (const Seed& l : literals) {
      table.add(std::vector<Seed>{l});
      std::vector<Seed> pair{l, literals[rng.next_below(literals.size())]};
      if (pair[1].first != l.first) table.add(pair);
      if (rng.next_below(4) == 0) {
        pair.push_back(literals[rng.next_below(literals.size())]);
        table.add(pair);
      }
      if (rng.next_below(4) == 0)
        table.add(std::vector<Seed>{l});  // a repeated set
    }

    for (const std::size_t jobs : {1u, 4u}) {
      ThreadPool::set_global_jobs(jobs);
      std::vector<std::vector<Seed>> closures(table.size());
      std::vector<int> calls(table.size(), 0);
      table.run(view, exec::Checkpoint(),
                [&](std::size_t trial, const AssignmentMap& closure) {
                  closures[trial] = as_set(closure);
                  ++calls[trial];
                  return closure.size() % 2 == 0;
                });
      for (std::size_t t = 0; t < table.size(); ++t) {
        const bool expected = propagate(view, table.seeds(t), scratch);
        ASSERT_EQ(table.feasible(t), expected)
            << "design " << design << " jobs " << jobs << " trial " << t;
        if (!expected) {
          EXPECT_EQ(calls[t], 0);
          EXPECT_FALSE(table.unifies(t));
          ++infeasible;
          continue;
        }
        ++feasible;
        EXPECT_EQ(calls[t], 1);
        EXPECT_EQ(closures[t], as_set(scratch))
            << "design " << design << " jobs " << jobs << " trial " << t;
        EXPECT_EQ(table.unifies(t), scratch.size() % 2 == 0);
      }
    }
  }
  ThreadPool::set_global_jobs(0);
  EXPECT_GT(feasible, 1000u);
  EXPECT_GT(infeasible, 100u);
  EXPECT_GT(below_infeasible, 10u);
}

// --- Oracle: replay a traced run trial by trial ------------------------------

// Mirrors the trial verdict: every bit stays non-constant under `map` and
// all signatures become equal, with at least one subtree left.
bool rehash_unifies(const ConeHasher& hasher, const std::vector<NetId>& bits,
                    const AssignmentMap& map) {
  std::optional<BitSignature> first;
  for (NetId bit : bits) {
    BitSignature sig = hasher.signature(bit, &map);
    if (!sig.root_type.has_value()) return false;
    if (!first) {
      first = std::move(sig);
    } else if (!first->structurally_equal(sig)) {
      return false;
    }
  }
  return first.has_value() && !first->subtrees.empty();
}

struct Replay {
  std::size_t trials = 0;
  std::size_t unified = 0;
  std::string error;  // the first disagreement, empty when none
};

// Walks the trace in order: each partial subgroup's record is followed by
// its control signals, its trials, then kUnified or kFallback.  Every trial
// is propagated from scratch and rehashed; its feasibility must match the
// record, and it must unify exactly when the next record is kUnified.
Replay replay(const Netlist& nl, const Options& options,
              const IdentifyTrace& trace) {
  Replay out;
  const ConeHasher hasher(nl, options);
  AssignmentMap map;
  const std::vector<NetId>* bits = nullptr;
  const std::vector<Seed>* last_trial = nullptr;
  const auto fail = [&](const std::string& what) {
    if (out.error.empty()) out.error = what;
  };
  const auto& records = trace.records;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const TraceRecord& record = records[r];
    switch (record.kind) {
      case TraceRecord::Kind::kPartialSubgroup:
        bits = &record.nets;
        last_trial = nullptr;
        break;
      case TraceRecord::Kind::kControlSignals:
        break;
      case TraceRecord::Kind::kTrial: {
        if (bits == nullptr) {
          fail("trial before any partial subgroup");
          break;
        }
        const bool feasible = propagate(*options.compact, record.assignment, map);
        const bool unifies = feasible && rehash_unifies(hasher, *bits, map);
        const bool winner = r + 1 < records.size() &&
                            records[r + 1].kind == TraceRecord::Kind::kUnified;
        if (feasible != record.flag)
          fail("trial " + std::to_string(out.trials) + " feasibility");
        if (unifies != winner)
          fail("trial " + std::to_string(out.trials) +
               (winner ? " is traced as the winner but does not unify"
                       : " unifies but is not traced as the winner"));
        last_trial = &record.assignment;
        ++out.trials;
        break;
      }
      case TraceRecord::Kind::kUnified:
        if (last_trial == nullptr || *last_trial != record.assignment ||
            bits == nullptr || *bits != record.nets)
          fail("unified record " + std::to_string(out.unified) +
               " does not name its subgroup's last trial");
        ++out.unified;
        break;
      case TraceRecord::Kind::kFallback:
        break;
    }
  }
  return out;
}

// Runs identify_words traced at each job count and assignment limit, and
// replays every run.  Returns the trials replayed.
std::size_t check_design(const Netlist& nl, const std::string& name) {
  const CompactView view = CompactView::build(nl);
  std::size_t replayed = 0;
  for (const std::size_t max_assign : {1u, 2u, 3u}) {
    std::optional<IdentifyResult> serial;
    for (const std::size_t jobs : {1u, 4u}) {
      ThreadPool::set_global_jobs(jobs);
      Options options;
      options.compact = &view;
      options.max_simultaneous_assignments = max_assign;
      IdentifyTrace trace;
      options.trace = &trace;
      const IdentifyResult result = identify_words(nl, options);
      const Replay check = replay(nl, options, trace);
      const std::string where = name + " max_assign " +
                                std::to_string(max_assign) + " jobs " +
                                std::to_string(jobs);
      EXPECT_EQ(check.error, "") << where;
      EXPECT_EQ(check.trials, result.stats.reduction_trials) << where;
      EXPECT_EQ(check.unified, result.stats.unified_subgroups) << where;
      EXPECT_EQ(check.unified, result.unified.size()) << where;
      replayed += check.trials;
      if (!serial) {
        serial = result;
        continue;
      }
      std::vector<std::vector<NetId>> words, serial_words;
      for (const Word& word : result.words.words) words.push_back(word.bits);
      for (const Word& word : serial->words.words)
        serial_words.push_back(word.bits);
      EXPECT_EQ(words, serial_words) << where;
      EXPECT_EQ(result.used_control_signals, serial->used_control_signals)
          << where;
    }
  }
  ThreadPool::set_global_jobs(0);
  return replayed;
}

class TrialTableOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(TrialTableOracle, EveryTraceTrialReplaysFromScratch) {
  const auto bench = itc::build_benchmark(GetParam());
  EXPECT_GT(check_design(bench.netlist, GetParam()), 0u);
}

INSTANTIATE_TEST_SUITE_P(FamilyBenchmarks, TrialTableOracle,
                         ::testing::Values("b03s", "b04s", "b05s", "b07s",
                                           "b08s", "b11s", "b12s", "b13s",
                                           "b14s", "b15s", "b17s", "b18s"));

TEST(TrialTableOracle, EveryTraceTrialReplaysOnRandomDesigns) {
  std::size_t replayed = 0;
  for (std::uint64_t design = 1; design <= 200; ++design) {
    Rng rng(design * 65537);
    const Netlist nl = random_design(design, rng);
    replayed += check_design(nl, "random " + std::to_string(design));
  }
  // The random designs must reach the trial table, not only Base paths.
  EXPECT_GT(replayed, 1000u);
}

}  // namespace
}  // namespace netrev::wordrec
