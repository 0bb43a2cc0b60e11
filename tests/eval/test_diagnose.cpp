#include "eval/diagnose.h"

#include <gtest/gtest.h>

#include "itc/family.h"
#include "wordrec/identify.h"

namespace netrev::eval {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;
using wordrec::Word;
using wordrec::WordSet;

struct Fixture {
  Netlist nl;
  ReferenceExtraction reference;
  std::vector<NetId> a_bits, b_bits;

  Fixture() {
    // Two reference words: A_REG (3 bits), B_REG (2 bits).
    for (int i = 0; i < 3; ++i) a_bits.push_back(add_flop("A_REG", i));
    for (int i = 0; i < 2; ++i) b_bits.push_back(add_flop("B_REG", i));
    reference = extract_reference_words(nl);
  }

  NetId add_flop(const std::string& base, int index) {
    const NetId d = nl.add_net(base + "_d" + std::to_string(index));
    nl.mark_primary_input(d);
    const NetId q =
        nl.add_net(base + "_" + std::to_string(index) + "_");
    nl.add_gate(GateType::kDff, q, {d});
    nl.mark_primary_output(q);
    return d;
  }
};

TEST(Diagnose, ClassifiesAndSizesFragments) {
  Fixture f;
  WordSet generated;
  generated.words.push_back(Word{{f.a_bits[0], f.a_bits[1]}});  // A split
  generated.words.push_back(Word{{f.a_bits[2]}});
  generated.words.push_back(Word{{f.b_bits[0], f.b_bits[1]}});  // B full

  const Diagnosis diagnosis = diagnose(f.nl, generated, f.reference);
  ASSERT_EQ(diagnosis.words.size(), 2u);
  EXPECT_EQ(diagnosis.words[0].register_name, "A_REG");
  EXPECT_EQ(diagnosis.words[0].outcome, WordOutcome::kPartiallyFound);
  EXPECT_EQ(diagnosis.words[0].fragment_sizes,
            (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(diagnosis.words[1].outcome, WordOutcome::kFullyFound);
}

TEST(Diagnose, UncoveredBitsBecomeUnitFragments) {
  Fixture f;
  WordSet generated;
  generated.words.push_back(Word{{f.a_bits[0], f.a_bits[1]}});
  // a_bits[2] and both B bits are uncovered.
  const Diagnosis diagnosis = diagnose(f.nl, generated, f.reference);
  EXPECT_EQ(diagnosis.words[0].fragment_sizes,
            (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(diagnosis.words[1].outcome, WordOutcome::kNotFound);
  EXPECT_EQ(diagnosis.words[1].fragment_sizes,
            (std::vector<std::size_t>{1, 1}));
}

TEST(Diagnose, RenderMentionsOutcomesAndNames) {
  Fixture f;
  WordSet generated;
  generated.words.push_back(Word{{f.a_bits[0], f.a_bits[1], f.a_bits[2]}});
  generated.words.push_back(Word{{f.b_bits[0]}});
  generated.words.push_back(Word{{f.b_bits[1]}});
  const std::string text =
      render_diagnosis(diagnose(f.nl, generated, f.reference));
  EXPECT_NE(text.find("FULL"), std::string::npos);
  EXPECT_NE(text.find("MISSING"), std::string::npos);
  EXPECT_NE(text.find("A_REG"), std::string::npos);
  EXPECT_NE(text.find("fragments: 1 1"), std::string::npos);
}

TEST(Diagnose, AgreesWithPipelineOnFamilyBenchmark) {
  const auto bench = itc::build_benchmark("b08s");
  const auto reference = extract_reference_words(bench.netlist);
  const auto ours = wordrec::identify_words(bench.netlist);
  const Diagnosis diagnosis = diagnose(bench.netlist, ours.words, reference);
  EXPECT_EQ(diagnosis.summary.fully_found, 4u);   // 80% of 5 words
  EXPECT_EQ(diagnosis.summary.not_found, 1u);
  // The missing word is the heterogeneous state register.
  for (const auto& word : diagnosis.words)
    if (word.outcome == WordOutcome::kNotFound) {
      EXPECT_EQ(word.register_name, "STATO_reg");
    }
}

}  // namespace
}  // namespace netrev::eval
