// End-to-end pipeline checks on the synthetic family: Ours must dominate
// Base on every §3 metric (the paper's "never performs worse" claims), and
// the recovered control-signal counts must match the embedded ground truth.
#include <gtest/gtest.h>

#include <map>

#include "eval/metrics.h"
#include "eval/reference.h"
#include "itc/family.h"
#include "pipeline/session.h"

namespace netrev {
namespace {

struct PipelineResult {
  itc::GeneratedBenchmark bench;
  eval::TechniqueRun base;
  eval::TechniqueRun ours;
  eval::EvaluationSummary base_summary;
  eval::EvaluationSummary ours_summary;
};

const PipelineResult& run(const std::string& name) {
  static std::map<std::string, PipelineResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    PipelineResult result;
    result.bench = itc::build_benchmark(name);
    const auto reference = eval::extract_reference_words(result.bench.netlist);
    // Both techniques under one session, as `netrev table` runs them.
    Session session;
    const LoadedDesign design = session.adopt_netlist(result.bench.netlist);
    session.config().use_baseline = true;
    result.base = session.run(design);
    session.config().use_baseline = false;
    result.ours = session.run(design);
    result.base_summary = evaluate_words(result.base.words, reference.words);
    result.ours_summary = evaluate_words(result.ours.words, reference.words);
    it = cache.emplace(name, std::move(result)).first;
  }
  return it->second;
}

class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, OursNeverFindsFewerFullWords) {
  const auto& r = run(GetParam());
  EXPECT_GE(r.ours_summary.fully_found, r.base_summary.fully_found);
}

TEST_P(PipelineTest, OursNeverLeavesMoreWordsNotFound) {
  const auto& r = run(GetParam());
  EXPECT_LE(r.ours_summary.not_found, r.base_summary.not_found);
}

TEST_P(PipelineTest, OursFragmentationNoWorseOnSharedPartials) {
  // The paper's aggregate fragmentation claim; compare only when both have
  // partials (composition effects are legitimate, see b15 discussion).
  const auto& r = run(GetParam());
  if (r.ours_summary.partially_found == r.base_summary.partially_found &&
      r.ours_summary.partially_found > 0) {
    EXPECT_LE(r.ours_summary.avg_fragmentation,
              r.base_summary.avg_fragmentation + 1e-9);
  }
}

TEST_P(PipelineTest, ControlSignalsMatchEmbeddedGroundTruth) {
  const auto& r = run(GetParam());
  EXPECT_EQ(r.ours.control_signals,
            r.bench.profile.expected_control_signals());
}

TEST_P(PipelineTest, BaselineUsesNoControlSignals) {
  const auto& r = run(GetParam());
  EXPECT_EQ(r.base.control_signals, 0u);
}

TEST_P(PipelineTest, EveryReferenceBitAppearsInSomeGeneratedWord) {
  const auto& r = run(GetParam());
  const auto reference = eval::extract_reference_words(r.bench.netlist);
  const auto index = r.ours.words.index_of_net();
  for (const auto& word : reference.words)
    for (netlist::NetId bit : word.bits)
      EXPECT_TRUE(index.contains(bit)) << word.register_name;
}

INSTANTIATE_TEST_SUITE_P(Family, PipelineTest,
                         ::testing::Values("b03s", "b04s", "b05s", "b07s",
                                           "b08s", "b11s", "b12s", "b13s",
                                           "b14s", "b15s"));

}  // namespace
}  // namespace netrev
