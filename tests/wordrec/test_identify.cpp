#include "wordrec/identify.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analyzer.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "wordrec/baseline.h"

namespace netrev::wordrec {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

// Builds words the way the synthetic benchmarks do: operand logic first,
// root gates on consecutive lines.
struct Builder {
  Netlist nl;
  std::vector<NetId> srcs;
  int counter = 0;

  Builder() {
    for (int i = 0; i < 10; ++i) {
      srcs.push_back(nl.add_net("s" + std::to_string(i)));
      nl.mark_primary_input(srcs.back());
    }
  }

  NetId fresh(const std::string& prefix) {
    return nl.add_net(prefix + std::to_string(counter++));
  }
  NetId gate(GateType type, std::initializer_list<NetId> ins,
             const std::string& prefix = "n") {
    const NetId out = fresh(prefix);
    nl.add_gate(type, out, ins);
    return out;
  }

  // Control word of `width` bits; bits >= plain get per-bit distinct
  // dissimilar subtrees NAND-fed by a fresh internal control signal.
  struct ControlWord {
    std::vector<NetId> bits;
    NetId ctrl;
  };
  ControlWord control_word(std::size_t width, std::size_t plain) {
    ControlWord word;
    const NetId t = gate(GateType::kNand, {srcs[0], srcs[1]});
    word.ctrl = gate(GateType::kNor, {t, srcs[2]}, "ctrl");

    std::vector<std::pair<NetId, NetId>> sim(width);
    std::vector<NetId> extras(width, NetId::invalid());
    for (std::size_t i = 0; i < width; ++i) {
      sim[i].first = gate(GateType::kNand,
                          {srcs[3 + i % 4], srcs[4 + i % 4]});
      sim[i].second = gate(GateType::kNor,
                           {srcs[3 + i % 4], srcs[5 + i % 4]});
      if (i < plain) continue;
      NetId garnish;
      switch (i % 3) {
        case 0: garnish = srcs[6]; break;
        case 1: garnish = gate(GateType::kNot, {srcs[6]}); break;
        default: garnish = gate(GateType::kAnd, {srcs[6], srcs[7]}); break;
      }
      extras[i] = gate(GateType::kNand, {word.ctrl, garnish}, "e");
    }
    for (std::size_t i = 0; i < width; ++i) {
      const NetId root =
          extras[i].is_valid()
              ? gate(GateType::kNand, {sim[i].first, sim[i].second, extras[i]},
                     "bit")
              : gate(GateType::kNand, {sim[i].first, sim[i].second}, "bit");
      word.bits.push_back(root);
    }
    return word;
  }

  // Pair-controlled word: every bit's extra dies only under both signals.
  struct PairWord {
    std::vector<NetId> bits;
    NetId ctrl_a, ctrl_b;
  };
  PairWord pair_word(std::size_t width) {
    PairWord word;
    word.ctrl_a = gate(GateType::kNor, {srcs[0], srcs[1]}, "ca");
    word.ctrl_b = gate(GateType::kNor, {srcs[2], srcs[3]}, "cb");
    std::vector<std::pair<NetId, NetId>> sim(width);
    std::vector<NetId> extras(width);
    for (std::size_t i = 0; i < width; ++i) {
      sim[i].first = gate(GateType::kNand, {srcs[4 + i % 3], srcs[5 + i % 3]});
      sim[i].second = gate(GateType::kNor, {srcs[4 + i % 3], srcs[6 + i % 3]});
      const NetId ga = (i % 2 == 0)
                           ? srcs[7]
                           : gate(GateType::kNot, {srcs[7]});
      const NetId gb = (i % 2 == 0)
                           ? gate(GateType::kAnd, {srcs[8], srcs[9]})
                           : srcs[8];
      const NetId ea = gate(GateType::kNand, {word.ctrl_a, ga}, "ea");
      const NetId eb = gate(GateType::kNand, {word.ctrl_b, gb}, "eb");
      extras[i] = gate(GateType::kAnd, {ea, eb}, "e");
    }
    for (std::size_t i = 0; i < width; ++i)
      word.bits.push_back(gate(
          GateType::kNand, {sim[i].first, sim[i].second, extras[i]}, "bit"));
    return word;
  }
};

std::optional<Word> word_containing(const WordSet& words, NetId bit) {
  for (const Word& word : words.words) {
    if (word.width() < 2) continue;
    if (std::find(word.bits.begin(), word.bits.end(), bit) != word.bits.end())
      return word;
  }
  return std::nullopt;
}

bool word_covers(const WordSet& words, const std::vector<NetId>& bits) {
  const auto word = word_containing(words, bits[0]);
  if (!word) return false;
  return std::all_of(bits.begin(), bits.end(), [&](NetId bit) {
    return std::find(word->bits.begin(), word->bits.end(), bit) !=
           word->bits.end();
  });
}

TEST(Identify, UnifiesControlWordBaselineMisses) {
  Builder b;
  const auto word = b.control_word(4, 0);
  const WordSet base = identify_words_baseline(b.nl);
  EXPECT_FALSE(word_covers(base, word.bits));

  const IdentifyResult ours = identify_words(b.nl);
  EXPECT_TRUE(word_covers(ours.words, word.bits));
  ASSERT_EQ(ours.used_control_signals.size(), 1u);
  EXPECT_EQ(ours.used_control_signals[0], word.ctrl);
  EXPECT_EQ(ours.stats.unified_subgroups, 1u);
}

TEST(Identify, UnifiesPartialControlWord) {
  Builder b;
  const auto word = b.control_word(5, 3);
  const IdentifyResult ours = identify_words(b.nl);
  EXPECT_TRUE(word_covers(ours.words, word.bits));
}

TEST(Identify, RecordsWinningAssignment) {
  Builder b;
  const auto word = b.control_word(4, 0);
  const IdentifyResult ours = identify_words(b.nl);
  ASSERT_EQ(ours.unified.size(), 1u);
  ASSERT_EQ(ours.unified[0].assignment.size(), 1u);
  EXPECT_EQ(ours.unified[0].assignment[0].first, word.ctrl);
  EXPECT_EQ(ours.unified[0].assignment[0].second, false);  // NAND controlling
}

TEST(Identify, PairWordNeedsTwoSimultaneousAssignments) {
  Builder b;
  const auto word = b.pair_word(4);

  Options single;
  single.max_simultaneous_assignments = 1;
  const IdentifyResult limited = identify_words(b.nl, single);
  EXPECT_FALSE(word_covers(limited.words, word.bits));

  Options pairs;  // default 2
  const IdentifyResult ours = identify_words(b.nl, pairs);
  EXPECT_TRUE(word_covers(ours.words, word.bits));
  EXPECT_EQ(ours.used_control_signals.size(), 2u);
  ASSERT_EQ(ours.unified.size(), 1u);
  EXPECT_EQ(ours.unified[0].assignment.size(), 2u);
}

TEST(Identify, CleanWordsNeedNoControlSignals) {
  Builder b;
  const auto word = b.control_word(4, 4);  // all plain
  const IdentifyResult ours = identify_words(b.nl);
  EXPECT_TRUE(word_covers(ours.words, word.bits));
  EXPECT_TRUE(ours.used_control_signals.empty());
  EXPECT_EQ(ours.stats.reduction_trials, 0u);
}

TEST(Identify, FallbackMatchesBaselineSegmentsOnFailure) {
  // A subgroup whose dissimilar subtrees share nothing: no control signal,
  // so Ours must fall back to base-style full-match runs.
  Builder b;
  std::vector<std::pair<NetId, NetId>> sim(4);
  std::vector<NetId> extras(4, NetId::invalid());
  for (int i = 0; i < 4; ++i) {
    sim[static_cast<std::size_t>(i)].first =
        b.gate(GateType::kNand, {b.srcs[0], b.srcs[1]});
    sim[static_cast<std::size_t>(i)].second =
        b.gate(GateType::kNor, {b.srcs[0], b.srcs[2]});
  }
  // bits 2,3 carry unrelated extras (no common nets).
  extras[2] = b.gate(GateType::kXor, {b.srcs[3], b.srcs[4]});
  extras[3] = b.gate(GateType::kXnor, {b.srcs[5], b.srcs[6]});
  std::vector<NetId> bits;
  for (int i = 0; i < 4; ++i) {
    const auto& s = sim[static_cast<std::size_t>(i)];
    bits.push_back(extras[static_cast<std::size_t>(i)].is_valid()
                       ? b.gate(GateType::kNand,
                                {s.first, s.second,
                                 extras[static_cast<std::size_t>(i)]},
                                "bit")
                       : b.gate(GateType::kNand, {s.first, s.second}, "bit"));
  }

  const IdentifyResult ours = identify_words(b.nl);
  // bits 0-1 form a word; 2 and 3 end up singletons — same as baseline.
  const auto word = word_containing(ours.words, bits[0]);
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(word->bits, (std::vector<NetId>{bits[0], bits[1]}));
  EXPECT_FALSE(word_containing(ours.words, bits[2]).has_value());
  EXPECT_EQ(ours.stats.unified_subgroups, 0u);
}

TEST(Identify, PartitionCoversEveryGateOutput) {
  Builder b;
  b.control_word(4, 0);
  b.pair_word(3);
  const IdentifyResult ours = identify_words(b.nl);
  const auto index = ours.words.index_of_net();
  std::size_t total = 0;
  for (const Word& word : ours.words.words) total += word.width();
  EXPECT_EQ(total, b.nl.gate_count());
  for (std::size_t g = 0; g < b.nl.gate_count(); ++g)
    EXPECT_TRUE(index.contains(b.nl.gate(b.nl.gate_id_at(g)).output));
}

TEST(Identify, StatsAreCoherent) {
  Builder b;
  b.control_word(4, 0);
  const IdentifyResult ours = identify_words(b.nl);
  EXPECT_GT(ours.stats.groups, 0u);
  EXPECT_GE(ours.stats.subgroups, ours.stats.partial_subgroups);
  EXPECT_GE(ours.stats.reduction_trials, ours.stats.unified_subgroups);
  EXPECT_GT(ours.stats.control_signal_candidates, 0u);
}

TEST(Identify, TrialBudgetCapsSearch) {
  Builder b;
  b.pair_word(4);
  Options tight;
  tight.max_assignment_trials_per_subgroup = 1;  // only the first single
  const IdentifyResult ours = identify_words(b.nl, tight);
  EXPECT_LE(ours.stats.reduction_trials, 2u);  // one per partial subgroup max
}

TEST(Identify, EmptyNetlist) {
  const IdentifyResult ours = identify_words(Netlist{});
  EXPECT_TRUE(ours.words.words.empty());
  EXPECT_TRUE(ours.used_control_signals.empty());
}

TEST(Identify, CombinationalCycleAbortsWithStructuralDiagnostic) {
  // The mandatory pre-pass must reject a cyclic netlist with a diagnostic
  // naming the loop instead of handing it to levelization/cone hashing.
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {a, x});
  nl.mark_primary_output(y);

  // Without a view identify_words builds one; with the caller's prebuilt
  // view it must reject the cycle all the same.
  const netlist::CompactView view = netlist::CompactView::build(nl);
  Options prebuilt;
  prebuilt.compact = &view;
  for (const Options& options : {Options{}, prebuilt}) {
    try {
      identify_words(nl, options);
      FAIL() << "expected analysis::StructuralDefectError";
    } catch (const analysis::StructuralDefectError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
      EXPECT_NE(what.find("x -> y -> x"), std::string::npos) << what;
    }
  }
}

TEST(Identify, NoTrialsNeedNoAcyclicCheck) {
  // The check guards constant propagation; with no reduction trials allowed
  // (Base) nothing propagates, and depth-bounded hashing terminates on the
  // loop, so a cyclic design is identified like any other.
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {a, x});
  nl.mark_primary_output(y);

  Options options;
  options.max_simultaneous_assignments = 0;
  IdentifyResult result;
  ASSERT_NO_THROW(result = identify_words(nl, options));
  std::size_t covered = 0;
  for (const Word& word : result.words.words) covered += word.width();
  EXPECT_EQ(covered, nl.gate_count());  // still a partition of x and y
  EXPECT_EQ(result.stats.control_signal_candidates, 0u);
}

TEST(Identify, BrokenCycleRunsToCompletion) {
  // The documented recovery: break_combinational_cycles then identify.
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {a, x});
  nl.mark_primary_output(y);

  diag::Diagnostics diags;
  const analysis::CycleBreakResult fixed =
      analysis::break_combinational_cycles(nl, diags);
  EXPECT_EQ(fixed.cycles_broken, 1u);
  EXPECT_NO_THROW(identify_words(fixed.netlist));
}

TEST(Identify, DataflowPruningLeavesBenchmarkResultsUnchanged) {
  // The synthetic benchmarks contain no derived constants, so --use-dataflow
  // must not change anything: same words, same control signals, same stats.
  // (identify_words computes the constant mask on demand here, exercising
  // the standalone path the Session's cached stage bypasses.)
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  const IdentifyResult base = identify_words(nl);
  Options pruning;
  pruning.use_dataflow = true;
  const IdentifyResult pruned = identify_words(nl, pruning);

  ASSERT_EQ(base.words.words.size(), pruned.words.words.size());
  for (std::size_t i = 0; i < base.words.words.size(); ++i)
    EXPECT_EQ(base.words.words[i].bits, pruned.words.words[i].bits);
  EXPECT_EQ(base.used_control_signals, pruned.used_control_signals);
  EXPECT_EQ(base.stats.control_signal_candidates,
            pruned.stats.control_signal_candidates);
  EXPECT_EQ(base.stats.reduction_trials, pruned.stats.reduction_trials);
  EXPECT_EQ(base.stats.unified_subgroups, pruned.stats.unified_subgroups);
}

}  // namespace
}  // namespace netrev::wordrec
