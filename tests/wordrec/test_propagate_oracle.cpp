// Differential oracle for the CSR propagation engine.  On seeded random
// designs and on every reduction trial of the twelve Table 1 profiles, the
// CSR engine must reproduce the pointer reference exactly: the same
// feasibility and the same entries() sequence (nets, values and order), so
// the closure, the verdict and the partial map on infeasible seeds all match.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/random_netlist.h"
#include "wordrec/assignment.h"
#include "wordrec/identify.h"
#include "wordrec/trace.h"

namespace netrev::wordrec {
namespace {

using netlist::CompactView;
using netlist::NetId;
using netlist::Netlist;
using Seed = std::pair<NetId, bool>;

struct Comparison {
  bool feasible = false;
  std::string difference;  // empty when the engines agree
};

// Runs both engines on `seeds`; `csr` is reused across calls, as a pool
// thread reuses its map across trials.
Comparison compare_engines(const Netlist& nl, const CompactView& view,
                           std::span<const Seed> seeds, AssignmentMap& csr) {
  const PropagationResult reference = propagate(nl, seeds);
  Comparison result;
  result.feasible = propagate(view, seeds, csr);
  std::ostringstream diff;
  if (result.feasible != reference.feasible) {
    diff << "feasible: csr " << result.feasible << ", reference "
         << reference.feasible;
  } else {
    const auto want = reference.map.entries();
    const auto got = csr.entries();
    const std::size_t common = std::min(want.size(), got.size());
    const auto mismatch =
        std::mismatch(want.begin(), want.begin() + common, got.begin());
    if (mismatch.first != want.begin() + common) {
      diff << "entry " << (mismatch.first - want.begin()) << ": csr net "
           << mismatch.second->first.value() << '=' << mismatch.second->second
           << ", reference net " << mismatch.first->first.value() << '='
           << mismatch.first->second;
    } else if (want.size() != got.size()) {
      diff << "size: csr " << got.size() << ", reference " << want.size();
    }
  }
  result.difference = diff.str();
  return result;
}

TEST(PropagateOracle, CsrMatchesReferenceOnRandomDesigns) {
  AssignmentMap csr;  // one map across designs of every size
  std::size_t feasible = 0, infeasible = 0;
  for (std::uint64_t design = 1; design <= 240; ++design) {
    Rng rng(design * 7919);
    netlist::RandomNetlistSpec spec;
    spec.primary_inputs = 2 + rng.next_below(10);
    spec.combinational_gates = 5 + rng.next_below(300);
    spec.flops = rng.next_below(8);
    spec.max_fanin = 2 + rng.next_below(4);
    spec.include_constants = design % 3 == 0;
    spec.seed = design;
    const Netlist nl = netlist::random_netlist(spec);
    const CompactView view = CompactView::build(nl);

    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Seed> seeds;
      const std::size_t count = 1 + rng.next_below(3);
      for (std::size_t k = 0; k < count; ++k)
        seeds.emplace_back(NetId(static_cast<std::uint32_t>(
                               rng.next_below(nl.net_count()))),
                           rng.next_bool());
      // The last trial contradicts its own first seed (a net at 0 and 1),
      // so every design sees a conflict caught among the seeds.
      if (trial == 3) seeds.emplace_back(seeds[0].first, !seeds[0].second);

      const Comparison result = compare_engines(nl, view, seeds, csr);
      ASSERT_EQ(result.difference, "")
          << "design " << design << " trial " << trial;
      if (trial < 3) ++(result.feasible ? feasible : infeasible);
    }
  }
  // Random seeds must reach both verdicts through implications, not only
  // through the planted seed conflicts.
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 20u);
}

class Table1Trials : public ::testing::TestWithParam<const char*> {};

// Every trial identify_words runs on the profile, replayed through both
// engines: the assignments the pipeline actually propagates.
TEST_P(Table1Trials, CsrMatchesReferenceOnEveryTrial) {
  const auto bench = itc::build_benchmark(GetParam());
  const CompactView view = CompactView::build(bench.netlist);
  Options options;
  options.compact = &view;
  IdentifyTrace trace;
  options.trace = &trace;
  const IdentifyResult identified = identify_words(bench.netlist, options);

  AssignmentMap csr;
  std::size_t trials = 0;
  for (const TraceRecord& record : trace.records) {
    if (record.kind != TraceRecord::Kind::kTrial) continue;
    const Comparison result =
        compare_engines(bench.netlist, view, record.assignment, csr);
    ASSERT_EQ(result.difference, "") << GetParam() << " trial " << trials;
    EXPECT_EQ(result.feasible, record.flag) << GetParam() << " trial " << trials;
    ++trials;
  }
  EXPECT_EQ(trials, identified.stats.reduction_trials);
}

INSTANTIATE_TEST_SUITE_P(FamilyBenchmarks, Table1Trials,
                         ::testing::Values("b03s", "b04s", "b05s", "b07s",
                                           "b08s", "b11s", "b12s", "b13s",
                                           "b14s", "b15s", "b17s", "b18s"));

}  // namespace
}  // namespace netrev::wordrec
