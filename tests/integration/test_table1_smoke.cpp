// Regression of the reproduced Table 1 against the paper's cells.
//
// For the small/medium benchmarks the reproduction lands exactly on the
// paper's percentages (the calibration fixes the word-outcome mix and the
// real algorithms recover it); these tests pin those values so an algorithm
// regression is caught as a Table 1 deviation.  Runtime columns are not
// pinned (hardware-dependent); fragmentation is pinned loosely.
#include <gtest/gtest.h>

#include <map>

#include "eval/reference.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "itc/family.h"

namespace netrev {
namespace {

struct Expected {
  double base_full, ours_full;
  double base_nf, ours_nf;
  std::size_t ours_controls;
};

const eval::Table1Row& row_for(const std::string& name) {
  static std::map<std::string, eval::Table1Row> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const auto bench = itc::build_benchmark(name);
    const auto reference = eval::extract_reference_words(bench.netlist);
    const auto base = eval::run_baseline(bench.netlist);
    const auto ours = eval::run_ours(bench.netlist);
    it = cache.emplace(name, make_row(name, bench.netlist, reference, base, ours))
             .first;
  }
  return it->second;
}

struct PaperCell {
  const char* name;
  Expected expected;
};

// Print the benchmark name only: ctest names value-parameterised cases by
// this printed value, and gtest's default printer would embed the string's
// load address, which changes from run to run.
void PrintTo(const PaperCell& cell, std::ostream* os) { *os << cell.name; }

class Table1Smoke : public ::testing::TestWithParam<PaperCell> {};

TEST_P(Table1Smoke, MatchesPaperCells) {
  const auto& [name, expected] = GetParam();
  const eval::Table1Row& row = row_for(name);
  EXPECT_NEAR(row.base.full_pct, expected.base_full, 0.1) << name;
  EXPECT_NEAR(row.ours.full_pct, expected.ours_full, 0.1) << name;
  EXPECT_NEAR(row.base.not_found_pct, expected.base_nf, 0.1) << name;
  EXPECT_NEAR(row.ours.not_found_pct, expected.ours_nf, 0.1) << name;
  EXPECT_EQ(row.ours.control_signals, expected.ours_controls) << name;
  EXPECT_EQ(row.base.control_signals, 0u) << name;
}

// Paper Table 1 cells (percentages rounded as printed there).
INSTANTIATE_TEST_SUITE_P(
    PaperCells, Table1Smoke,
    ::testing::Values(
        PaperCell{"b03s", {71.4, 85.7, 14.3, 14.3, 1}},
        PaperCell{"b04s", {77.8, 88.9, 11.1, 11.1, 1}},
        PaperCell{"b05s", {80.0, 80.0, 20.0, 20.0, 0}},
        PaperCell{"b07s", {57.1, 57.1, 14.3, 14.3, 1}},
        PaperCell{"b08s", {40.0, 80.0, 20.0, 20.0, 3}},
        PaperCell{"b11s", {60.0, 60.0, 0.0, 0.0, 0}},
        PaperCell{"b12s", {82.6, 91.3, 8.7, 4.3, 7}},
        PaperCell{"b13s", {28.6, 42.9, 28.6, 14.3, 2}},
        PaperCell{"b14s", {50.0, 62.5, 0.0, 0.0, 4}},
        PaperCell{"b15s", {68.8, 81.2, 6.2, 0.0, 4}}));

TEST(Table1Smoke, FragmentationDirectionHolds) {
  // Aggregate over the small benchmarks: Ours' average fragmentation must
  // be clearly below Base's (paper: 0.213 vs 0.381).
  double base_total = 0.0, ours_total = 0.0;
  const char* names[] = {"b03s", "b04s", "b08s", "b12s", "b13s"};
  for (const char* name : names) {
    base_total += row_for(name).base.fragmentation;
    ours_total += row_for(name).ours.fragmentation;
  }
  EXPECT_LT(ours_total, base_total);
}

TEST(Table1Smoke, B15sReproducesCompositionArtifact) {
  // Paper b15: Ours improves full-found and not-found, yet its partial-word
  // fragmentation is slightly HIGHER (0.24 vs 0.19) because the low-
  // fragmentation words left the partial pool.  The reproduction shows the
  // same artifact.
  const auto& row = row_for("b15s");
  EXPECT_GT(row.ours.full_pct, row.base.full_pct);
  EXPECT_LT(row.ours.not_found_pct, row.base.not_found_pct);
  EXPECT_GT(row.ours.fragmentation, row.base.fragmentation);
}

}  // namespace
}  // namespace netrev
