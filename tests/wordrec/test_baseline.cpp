#include "wordrec/baseline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/thread_pool.h"
#include "itc/family.h"
#include "netlist/random_netlist.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/matching.h"

namespace netrev::wordrec {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

// An oracle independent of identify_words' group loop and fallback: the
// serial loop WordRev's front end describes.  Group (§2.2, optionally
// merged across gaps), hash every bit's cone once, and chain bits only on a
// full match.
WordSet serial_baseline(const Netlist& nl, const Options& options) {
  const ConeHasher hasher(nl, options);
  std::vector<PotentialBitGroup> groups = potential_bit_groups(nl);
  if (options.cross_group_checking)
    groups = merge_groups_across_gaps(nl, std::move(groups),
                                      options.cross_group_max_gap);
  WordSet result;
  for (const PotentialBitGroup& group : groups) {
    std::vector<BitSignature> signatures;
    signatures.reserve(group.size());
    for (NetId bit : group) signatures.push_back(hasher.signature(bit));
    for (Subgroup& sg : form_subgroups(group, signatures,
                                       /*require_full_match=*/true)) {
      Word word;
      word.bits = std::move(sg.bits);
      result.words.push_back(std::move(word));
    }
  }
  return result;
}

std::vector<std::vector<NetId>> bits_of(const WordSet& words) {
  std::vector<std::vector<NetId>> bits;
  bits.reserve(words.words.size());
  for (const Word& word : words.words) bits.push_back(word.bits);
  return bits;
}

// identify_words_baseline equals the serial oracle at 1 and 4 jobs.
void expect_matches_serial_baseline(const Netlist& nl, const Options& options,
                                    const std::string& label) {
  const auto expected = bits_of(serial_baseline(nl, options));
  const std::size_t restore = ThreadPool::global_jobs();
  for (std::size_t jobs : {1u, 4u}) {
    ThreadPool::set_global_jobs(jobs);
    EXPECT_EQ(bits_of(identify_words_baseline(nl, options)), expected)
        << label << " diverged from the serial baseline at jobs=" << jobs;
  }
  ThreadPool::set_global_jobs(restore);
}

struct Builder {
  Netlist nl;
  std::vector<NetId> srcs;
  int counter = 0;

  Builder() {
    for (int i = 0; i < 8; ++i) {
      srcs.push_back(nl.add_net("s" + std::to_string(i)));
      nl.mark_primary_input(srcs.back());
    }
  }

  NetId fresh(const std::string& prefix) {
    return nl.add_net(prefix + std::to_string(counter++));
  }

  // A clean mux-style bit: root NAND(n0, n1) over sources (i, i+1).
  NetId clean_bit(int i) {
    const NetId n0 = fresh("n");
    nl.add_gate(GateType::kNand, n0, {srcs[static_cast<std::size_t>(i % 8)],
                                      srcs[static_cast<std::size_t>((i + 1) % 8)]});
    const NetId n1 = fresh("n");
    nl.add_gate(GateType::kNor, n1, {srcs[static_cast<std::size_t>(i % 8)],
                                     srcs[static_cast<std::size_t>((i + 2) % 8)]});
    const NetId root = fresh("bit");
    nl.add_gate(GateType::kNand, root, {n0, n1});
    return root;
  }
};

std::optional<Word> word_containing(const WordSet& words, NetId bit,
                                    std::size_t min_width = 2) {
  for (const Word& word : words.words) {
    if (word.width() < min_width) continue;
    if (std::find(word.bits.begin(), word.bits.end(), bit) != word.bits.end())
      return word;
  }
  return std::nullopt;
}

TEST(Baseline, GroupsFullyMatchingAdjacentBits) {
  Builder b;
  // Inner gates first, then the roots adjacent — like synthesized output.
  std::vector<NetId> inner_done;
  std::vector<std::pair<NetId, NetId>> pending;
  for (int i = 0; i < 4; ++i) {
    const NetId n0 = b.fresh("n");
    b.nl.add_gate(GateType::kNand, n0, {b.srcs[static_cast<std::size_t>(i)],
                                        b.srcs[static_cast<std::size_t>(i + 1)]});
    const NetId n1 = b.fresh("n");
    b.nl.add_gate(GateType::kNor, n1, {b.srcs[static_cast<std::size_t>(i)],
                                       b.srcs[static_cast<std::size_t>(i + 2)]});
    pending.emplace_back(n0, n1);
  }
  std::vector<NetId> bits;
  for (auto& [n0, n1] : pending) {
    const NetId root = b.fresh("bit");
    b.nl.add_gate(GateType::kNand, root, {n0, n1});
    bits.push_back(root);
  }

  const WordSet words = identify_words_baseline(b.nl);
  const auto word = word_containing(words, bits[0]);
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(word->bits, bits);
}

TEST(Baseline, PartitionCoversEveryGateOutput) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.clean_bit(i);
  const WordSet words = identify_words_baseline(b.nl);
  const auto index = words.index_of_net();
  for (std::size_t g = 0; g < b.nl.gate_count(); ++g)
    EXPECT_TRUE(index.contains(b.nl.gate(b.nl.gate_id_at(g)).output));
}

TEST(Baseline, PartitionHasNoOverlaps) {
  Builder b;
  for (int i = 0; i < 6; ++i) b.clean_bit(i);
  const WordSet words = identify_words_baseline(b.nl);
  std::size_t total = 0;
  for (const Word& word : words.words) total += word.width();
  EXPECT_EQ(total, b.nl.gate_count());
}

TEST(Baseline, PartialMatchDoesNotChain) {
  Builder b;
  // bit0: {NAND, NOR} subtrees; bit1 same plus an extra XOR subtree.
  const NetId n0a = b.fresh("n");
  b.nl.add_gate(GateType::kNand, n0a, {b.srcs[0], b.srcs[1]});
  const NetId n1a = b.fresh("n");
  b.nl.add_gate(GateType::kNor, n1a, {b.srcs[0], b.srcs[2]});
  const NetId n0b = b.fresh("n");
  b.nl.add_gate(GateType::kNand, n0b, {b.srcs[0], b.srcs[1]});
  const NetId n1b = b.fresh("n");
  b.nl.add_gate(GateType::kNor, n1b, {b.srcs[0], b.srcs[2]});
  const NetId extra = b.fresh("x");
  b.nl.add_gate(GateType::kXor, extra, {b.srcs[3], b.srcs[4]});
  const NetId bit0 = b.fresh("bit");
  b.nl.add_gate(GateType::kNand, bit0, {n0a, n1a});
  const NetId bit1 = b.fresh("bit");
  b.nl.add_gate(GateType::kNand, bit1, {n0b, n1b, extra});

  const WordSet words = identify_words_baseline(b.nl);
  EXPECT_FALSE(word_containing(words, bit0).has_value());
  EXPECT_FALSE(word_containing(words, bit1).has_value());
}

TEST(Baseline, ConeDepthOptionChangesDiscrimination) {
  Builder b;
  // Bits identical to depth 2 but diverging at depth 3.
  const NetId deep_a = b.fresh("d");
  b.nl.add_gate(GateType::kAnd, deep_a, {b.srcs[0], b.srcs[1]});
  const NetId deep_b = b.fresh("d");
  b.nl.add_gate(GateType::kXor, deep_b, {b.srcs[0], b.srcs[1]});
  const NetId mid_a = b.fresh("m");
  b.nl.add_gate(GateType::kNot, mid_a, {deep_a});
  const NetId mid_b = b.fresh("m");
  b.nl.add_gate(GateType::kNot, mid_b, {deep_b});
  const NetId bit_a = b.fresh("bit");
  b.nl.add_gate(GateType::kNand, bit_a, {mid_a, b.srcs[2]});
  const NetId bit_b = b.fresh("bit");
  b.nl.add_gate(GateType::kNand, bit_b, {mid_b, b.srcs[2]});

  Options shallow;
  shallow.cone_depth = 2;  // divergence is below the horizon
  const WordSet blurred = identify_words_baseline(b.nl, shallow);
  EXPECT_TRUE(word_containing(blurred, bit_a).has_value());

  Options deep;
  deep.cone_depth = 3;
  const WordSet sharp = identify_words_baseline(b.nl, deep);
  EXPECT_FALSE(word_containing(sharp, bit_a).has_value());
}

TEST(Baseline, FlopOutputsNeverFormWords) {
  Builder b;
  const NetId d = b.clean_bit(0);
  const NetId q1 = b.fresh("q");
  const NetId q2 = b.fresh("q");
  b.nl.add_gate(GateType::kDff, q1, {d});
  b.nl.add_gate(GateType::kDff, q2, {d});
  const WordSet words = identify_words_baseline(b.nl);
  EXPECT_FALSE(word_containing(words, q1).has_value());
}

TEST(Baseline, EmptyNetlist) {
  const WordSet words = identify_words_baseline(Netlist{});
  EXPECT_TRUE(words.words.empty());
}

class BaselineOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineOracle, MatchesSerialBaseline) {
  const Netlist nl = itc::build_benchmark(GetParam()).netlist;
  expect_matches_serial_baseline(nl, Options{}, GetParam());
  Options cross;
  cross.cross_group_checking = true;
  expect_matches_serial_baseline(nl, cross, GetParam() + " cross-group");
}

std::vector<std::string> table1_profile_names() {
  std::vector<std::string> names;
  for (const auto& profile : itc::itc99s_profiles())
    names.push_back(profile.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Table1Profiles, BaselineOracle,
                         ::testing::ValuesIn(table1_profile_names()),
                         [](const auto& info) { return info.param; });

TEST(Baseline, MatchesSerialBaselineOnRandomNetlists) {
  // 240 designs, half with constant drivers, under varied cone depths, leaf
  // tagging and cross-group merging.
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    netlist::RandomNetlistSpec spec;
    spec.seed = seed;
    spec.primary_inputs = 4 + seed % 8;
    spec.combinational_gates = 40 + (seed * 13) % 160;
    spec.flops = 2 + seed % 10;
    spec.include_constants = seed % 2 == 0;
    Options options;
    options.cone_depth = 2 + seed % 4;
    options.distinguish_leaf_kinds = seed % 5 != 0;
    options.cross_group_checking = seed % 3 == 0;
    expect_matches_serial_baseline(netlist::random_netlist(spec), options,
                                   "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace netrev::wordrec
