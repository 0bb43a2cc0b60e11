#include "itc/family.h"

#include <gtest/gtest.h>

#include "eval/reference.h"
#include "netlist/stats.h"
#include "netlist/validate.h"

namespace netrev::itc {
namespace {

// Structural checks across the whole family (identification quality is
// covered by tests/integration/test_table1_smoke.cpp).
class FamilyTest : public ::testing::TestWithParam<const char*> {
 protected:
  static const GeneratedBenchmark& bench() {
    static std::map<std::string, GeneratedBenchmark> cache;
    const std::string name = GetParam();
    auto it = cache.find(name);
    if (it == cache.end()) it = cache.emplace(name, build_benchmark(name)).first;
    return it->second;
  }
};

TEST_P(FamilyTest, Validates) {
  const auto report = netlist::validate(bench().netlist);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(FamilyTest, FlopCountMatchesTable1) {
  EXPECT_EQ(bench().netlist.flop_count(), bench().profile.target_flops);
}

TEST_P(FamilyTest, GateCountNearTable1Target) {
  const auto stats = netlist::compute_stats(bench().netlist);
  EXPECT_GE(stats.gates, bench().profile.target_gates);
  // Within ~15% above the target (word logic may overshoot small targets).
  EXPECT_LE(stats.gates, bench().profile.target_gates * 115 / 100 + 80);
}

TEST_P(FamilyTest, ReferenceWordsMatchProfile) {
  const auto reference = eval::extract_reference_words(bench().netlist);
  EXPECT_EQ(reference.words.size(), bench().profile.words.size());
  EXPECT_EQ(reference.indexed_flops, bench().profile.reference_bit_count());
}

TEST_P(FamilyTest, GroundTruthAgreesWithReferenceExtraction) {
  const auto reference = eval::extract_reference_words(bench().netlist);
  for (const auto& word : reference.words) {
    std::string plan_name = word.register_name;
    const auto pos = plan_name.rfind("_reg");
    ASSERT_NE(pos, std::string::npos);
    plan_name.resize(pos);
    ASSERT_TRUE(bench().word_bits.contains(plan_name)) << plan_name;
    EXPECT_EQ(word.bits, bench().word_bits.at(plan_name)) << plan_name;
  }
}

TEST_P(FamilyTest, EmbeddedControlCountMatchesExpectation) {
  EXPECT_EQ(bench().embedded_controls.size(),
            bench().profile.expected_control_signals());
}

INSTANTIATE_TEST_SUITE_P(AllButLargest, FamilyTest,
                         ::testing::Values("b03s", "b04s", "b05s", "b07s",
                                           "b08s", "b11s", "b12s", "b13s",
                                           "b14s", "b15s"));

// The two largest run once, structure-only (kept out of the sweep so a
// failure names them directly).
TEST(FamilyLarge, B17sValidatesAndMatchesCounts) {
  const auto bench = build_benchmark("b17s");
  EXPECT_TRUE(netlist::validate(bench.netlist).ok());
  EXPECT_EQ(bench.netlist.flop_count(), 1415u);
  EXPECT_GE(bench.netlist.gate_count(), 30777u);
}

TEST(FamilyLarge, B18sValidatesAndMatchesCounts) {
  const auto bench = build_benchmark("b18s");
  EXPECT_TRUE(netlist::validate(bench.netlist).ok());
  EXPECT_EQ(bench.netlist.flop_count(), 3320u);
  EXPECT_GE(bench.netlist.gate_count(), 111241u);
}

TEST(Family, BuildUnknownNameThrows) {
  EXPECT_THROW(build_benchmark("b02s"), std::invalid_argument);
  EXPECT_FALSE(is_profile_name("b02s"));
  EXPECT_FALSE(is_profile_name("b03s.bench"));
  EXPECT_FALSE(is_profile_name(""));
  EXPECT_TRUE(is_profile_name("b03s"));
  EXPECT_TRUE(is_profile_name("b18s"));
  EXPECT_TRUE(is_profile_name("b19s"));  // giants resolve by name too
}

}  // namespace
}  // namespace netrev::itc
