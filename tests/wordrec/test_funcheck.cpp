#include "wordrec/funcheck.h"

#include <gtest/gtest.h>

namespace netrev::wordrec {
namespace {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

struct Builder {
  Netlist nl;

  NetId pi(const std::string& name) {
    const NetId id = nl.add_net(name);
    nl.mark_primary_input(id);
    return id;
  }
  NetId gate(GateType type, const std::string& name,
             std::initializer_list<NetId> ins) {
    const NetId id = nl.add_net(name);
    nl.add_gate(type, id, ins);
    return id;
  }
  CompactView view() const { return CompactView::build(nl); }
  Word word_of(std::initializer_list<NetId> bits) {
    Word word;
    word.bits = bits;
    return word;
  }
};

TEST(Funcheck, CleanIndependentBits) {
  Builder b;
  const NetId x0 = b.pi("x0"), x1 = b.pi("x1"), x2 = b.pi("x2"), s = b.pi("s");
  const NetId b0 = b.gate(GateType::kAnd, "b0", {x0, s});
  const NetId b1 = b.gate(GateType::kAnd, "b1", {x1, s});
  const NetId b2 = b.gate(GateType::kAnd, "b2", {x2, s});
  const auto report =
      functional_sanity(b.view(), b.word_of({b0, b1, b2}), 128, 1);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.vectors, 128u);
}

TEST(Funcheck, DetectsStuckBit) {
  Builder b;
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId live = b.gate(GateType::kXor, "live", {x, y});
  const NetId nx = b.gate(GateType::kNot, "nx", {x});
  const NetId stuck = b.gate(GateType::kAnd, "stuck", {x, nx});  // always 0
  const auto report =
      functional_sanity(b.view(), b.word_of({live, stuck}), 128, 2);
  ASSERT_EQ(report.stuck_bits.size(), 1u);
  EXPECT_EQ(report.stuck_bits[0], 1u);
  EXPECT_FALSE(report.clean());
}

TEST(Funcheck, DetectsDuplicateBits) {
  Builder b;
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId a = b.gate(GateType::kAnd, "a", {x, y});
  const NetId a_copy = b.gate(GateType::kBuf, "a_copy", {a});
  const NetId other = b.gate(GateType::kXor, "other", {x, y});
  const auto report =
      functional_sanity(b.view(), b.word_of({a, a_copy, other}), 128, 3);
  ASSERT_EQ(report.duplicate_pairs.size(), 1u);
  EXPECT_EQ(report.duplicate_pairs[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(Funcheck, DetectsComplementaryBits) {
  Builder b;
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId a = b.gate(GateType::kXor, "a", {x, y});
  const NetId na = b.gate(GateType::kNot, "na", {a});
  const auto report = functional_sanity(b.view(), b.word_of({a, na}), 128, 4);
  ASSERT_EQ(report.complementary_pairs.size(), 1u);
  EXPECT_TRUE(report.duplicate_pairs.empty());
}

TEST(Funcheck, StuckPairsNotDoubleReported) {
  Builder b;
  const NetId x = b.pi("x");
  const NetId nx = b.gate(GateType::kNot, "nx", {x});
  const NetId zero1 = b.gate(GateType::kAnd, "zero1", {x, nx});
  const NetId zero2 = b.gate(GateType::kNor, "zero2", {x, nx});
  const auto report =
      functional_sanity(b.view(), b.word_of({zero1, zero2}), 64, 5);
  EXPECT_EQ(report.stuck_bits.size(), 2u);
  EXPECT_TRUE(report.duplicate_pairs.empty());
}

TEST(Funcheck, DeterministicForSeed) {
  Builder b;
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId a = b.gate(GateType::kXor, "a", {x, y});
  const NetId c = b.gate(GateType::kAnd, "c", {x, y});
  const auto r1 = functional_sanity(b.view(), b.word_of({a, c}), 64, 7);
  const auto r2 = functional_sanity(b.view(), b.word_of({a, c}), 64, 7);
  EXPECT_EQ(r1.stuck_bits, r2.stuck_bits);
  EXPECT_EQ(r1.duplicate_pairs, r2.duplicate_pairs);
}

TEST(Funcheck, EmptyWordAndZeroVectors) {
  Builder b;
  EXPECT_TRUE(functional_sanity(b.view(), Word{}, 64, 1).clean());
  const NetId x = b.pi("x");
  const NetId a = b.gate(GateType::kBuf, "a", {x});
  EXPECT_TRUE(functional_sanity(b.view(), b.word_of({a}), 0, 1).clean());
}

TEST(Funcheck, SuspiciousWordsFiltersWordSet) {
  Builder b;
  const NetId x = b.pi("x"), y = b.pi("y");
  const NetId g0 = b.gate(GateType::kXor, "g0", {x, y});
  const NetId g1 = b.gate(GateType::kAnd, "g1", {x, y});
  const NetId nx = b.gate(GateType::kNot, "nx", {x});
  const NetId stuck = b.gate(GateType::kAnd, "stuck", {x, nx});

  WordSet words;
  words.words.push_back(b.word_of({g0, g1}));      // clean
  words.words.push_back(b.word_of({g1, stuck}));   // stuck bit
  words.words.push_back(b.word_of({nx}));          // singleton: skipped
  const auto flagged = suspicious_words(b.view(), words, 128, 11);
  EXPECT_EQ(flagged, (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace netrev::wordrec
