#include "pipeline/session.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "analysis/dataflow.h"
#include "itc/family.h"
#include "perf/profile.h"
#include "pipeline/fingerprint.h"
#include "wordrec/trace.h"

namespace netrev {
namespace {

std::string temp_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "netrev_session_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = temp_dir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(Session, LoadsFamilyBenchmarksByName) {
  Session session;
  const LoadedDesign design = session.load_netlist("b03s");
  ASSERT_TRUE(design.valid());
  EXPECT_TRUE(design.from_family);
  EXPECT_FALSE(design.from_file);
  EXPECT_EQ(design.nl().gate_count(), 169u);
  EXPECT_EQ(design.identity,
            pipeline::netlist_fingerprint(
                itc::build_benchmark("b03s").netlist));
}

TEST(Session, LoadDispatchesOnFileSuffix) {
  const std::string bench = write_file("tiny.bench",
                                       "INPUT(a)\n"
                                       "INPUT(b)\n"
                                       "OUTPUT(q)\n"
                                       "q = NAND(a, b)\n");
  const std::string verilog = write_file("tiny.v",
                                         "module tiny (a, b, z);\n"
                                         "  input a;\n"
                                         "  input b;\n"
                                         "  output z;\n"
                                         "  nand U1 (z, a, b);\n"
                                         "endmodule\n");
  Session session;
  const LoadedDesign from_bench = session.load_netlist(bench);
  EXPECT_TRUE(from_bench.from_file);
  EXPECT_EQ(from_bench.nl().gate_count(), 1u);
  const LoadedDesign from_verilog = session.load_netlist(verilog);
  EXPECT_TRUE(from_verilog.from_file);
  EXPECT_EQ(from_verilog.nl().gate_count(), 1u);
}

TEST(Session, StrictLoadOfMissingFileThrows) {
  Session session;
  EXPECT_THROW((void)session.load_netlist("/nonexistent_netrev.bench"),
               std::runtime_error);
}

TEST(Session, PermissiveLoadOfMissingFileIsUnusableInput) {
  RunConfig config;
  config.parse.permissive = true;
  Session session(config);
  EXPECT_THROW((void)session.load_netlist("/nonexistent_netrev.bench"),
               UnusableInputError);
  EXPECT_GT(session.diagnostics().fatal_count(), 0u);
}

TEST(Session, IdentifyIsCachedByDesignIdentity) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign design = session.load_netlist("b03s");
  const auto first = session.identify(design);
  const auto second = session.identify(design);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_GT(cache.hits(), 0u);

  // Changing a result-affecting knob misses; restoring it hits again.
  session.config().wordrec.cone_depth = 3;
  const auto deeper = session.identify(design);
  EXPECT_NE(deeper.get(), first.get());
  session.config().wordrec.cone_depth = 4;
  EXPECT_EQ(session.identify(design).get(), first.get());
}

TEST(Session, AdoptedNetlistsShareCacheSlotsByStructure) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign a = session.adopt_netlist(itc::build_benchmark("b04s").netlist);
  const LoadedDesign b = session.adopt_netlist(itc::build_benchmark("b04s").netlist);
  EXPECT_EQ(a.identity, b.identity);
  EXPECT_EQ(session.identify(a).get(), session.identify(b).get());

  // And a family load of the same benchmark lands on the same identity.
  const LoadedDesign family = session.load_netlist("b04s");
  EXPECT_EQ(family.identity, a.identity);
}

TEST(Session, TraceSinksBypassTheCache) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign design = session.load_netlist("b03s");
  (void)session.compact(design);
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();

  wordrec::IdentifyTrace trace_a, trace_b;
  session.config().wordrec.trace = &trace_a;
  const auto traced_a = session.identify(design);
  session.config().wordrec.trace = &trace_b;
  const auto traced_b = session.identify(design);
  session.config().wordrec.trace = nullptr;

  EXPECT_NE(traced_a.get(), traced_b.get());  // real runs, not cache copies
  EXPECT_FALSE(trace_a.records.empty());
  // Each traced run reads the cached view and nothing else: no identify
  // artifact is looked up or stored.
  EXPECT_EQ(cache.hits(), hits + 2);
  EXPECT_EQ(cache.misses(), misses);

  // The untraced run is cached and agrees with the traced ones.
  const auto cached = session.identify(design);
  EXPECT_EQ(cached->words.count_multibit(),
            traced_a->words.count_multibit());
}

TEST(Session, IdentifyJsonHonorsTheTechniqueSelector) {
  Session session;
  const LoadedDesign design = session.load_netlist("b03s");
  const std::string ours = session.identify_json(design);
  session.config().use_baseline = true;
  const std::string base = session.identify_json(design);
  EXPECT_NE(ours, base);
  EXPECT_EQ(ours.front(), '{');
  EXPECT_EQ(base.front(), '{');
}

TEST(Session, WarmLoadsReplayRecordedDiagnostics) {
  const std::string path = write_file("damaged.bench",
                                      "INPUT(a)\n"
                                      "INPUT(b)\n"
                                      "OUTPUT(q)\n"
                                      "n1 = NAND(a, b)\n"
                                      "n2 = BOGUS(n1)\n"
                                      "q = NOT(n1)\n");
  RunConfig config;
  config.parse.permissive = true;
  pipeline::ArtifactCache cache;

  Session cold(config, &cache);
  diag::Diagnostics cold_diags;
  const LoadedDesign first =
      cold.load_netlist(path, config.parse, cold_diags);
  ASSERT_FALSE(cold_diags.empty());

  Session warm(config, &cache);
  diag::Diagnostics warm_diags;
  const LoadedDesign second =
      warm.load_netlist(path, config.parse, warm_diags);

  EXPECT_EQ(first.identity, second.identity);
  EXPECT_GT(cache.hits(), 0u);
  ASSERT_EQ(cold_diags.entries().size(), warm_diags.entries().size());
  for (std::size_t i = 0; i < cold_diags.entries().size(); ++i)
    EXPECT_EQ(cold_diags.entries()[i].to_string(),
              warm_diags.entries()[i].to_string());
}

TEST(Session, ParseNetlistForLintSkipsRepair) {
  const std::string path = write_file("dangling.bench",
                                      "INPUT(a)\n"
                                      "INPUT(b)\n"
                                      "OUTPUT(q)\n"
                                      "n1 = NAND(a, b)\n"
                                      "n2 = BOGUS(n1)\n"
                                      "q = NOT(n1)\n");
  RunConfig config;
  config.parse.permissive = true;
  Session session(config);
  diag::Diagnostics diags;
  const Session::Parsed parsed = session.parse_netlist(path, diags);
  ASSERT_TRUE(parsed.design.valid());
  ASSERT_NE(parsed.parse_diags, nullptr);
  EXPECT_GT(parsed.parse_diags->error_count(), 0u);
}

TEST(Session, DataflowStageIsCachedByDesignIdentity) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign design = session.load_netlist("b03s");
  const auto first = session.dataflow(design);
  const auto second = session.dataflow(design);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_GT(cache.hits(), 0u);
  ASSERT_EQ(first->always.size(), design.nl().net_count());

  // Changing the engine's iteration bound changes the key.
  session.config().analysis.dataflow_max_iterations = 3;
  EXPECT_NE(session.dataflow(design).get(), first.get());
  session.config().analysis.dataflow_max_iterations = 8;
  EXPECT_EQ(session.dataflow(design).get(), first.get());
}

TEST(Session, DataflowStageReportsProfileWork) {
  Session session;
  const LoadedDesign design = session.load_netlist("b03s");
  perf::Profiler::global().enable();  // resets all counters
  (void)session.dataflow(design);
  const std::uint64_t work =
      perf::Profiler::global().counter_value("stage.dataflow_ns");
  const std::string tree = perf::Profiler::global().render_text();
  perf::Profiler::global().disable();
  EXPECT_GT(work, 0u);
  EXPECT_NE(tree.find("dataflow"), std::string::npos);
}

TEST(Session, IdentifyWithDataflowMatchesDefaultOnFamilies) {
  // b03s has no derived constants, so the pruning knob must not move the
  // JSON a byte (the knob's conservative guarantee, end to end).
  Session session;
  const LoadedDesign design = session.load_netlist("b03s");
  const std::string plain = session.identify_json(design);
  session.config().wordrec.use_dataflow = true;
  const std::string pruned = session.identify_json(design);
  EXPECT_EQ(plain, pruned);
}

TEST(Session, AnalyzeSharesTheCachedDataflowStage) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign design = session.load_netlist("b03s");
  (void)session.dataflow(design);
  const std::uint64_t misses = cache.misses();
  const auto result = session.analyze(design);
  EXPECT_EQ(result->rules_run, 12u);
  // analyze() added its own artifact miss but reused the dataflow facts
  // instead of recomputing/rekeying them.
  EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(Session, TimedRunsComeBackFromTheCache) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const LoadedDesign design = session.load_netlist("b03s");
  const eval::TechniqueRun cold = session.run(design);
  const eval::TechniqueRun warm = session.run(design);
  EXPECT_EQ(cold.words.count_multibit(), warm.words.count_multibit());
  EXPECT_EQ(cold.control_signals, warm.control_signals);
  EXPECT_GE(cold.seconds, 0.0);
  EXPECT_GE(warm.seconds, 0.0);
  EXPECT_GT(cache.hits(), 0u);

  session.config().use_baseline = true;
  const eval::TechniqueRun base = session.run(design);
  EXPECT_EQ(base.control_signals, 0u);
}

// Session::run times both Table 1 techniques, switched by
// config().use_baseline as `netrev table` switches them.
TEST(Runner, BaselineRunsAndTimes) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  session.config().use_baseline = true;
  const eval::TechniqueRun run = session.run(session.load_netlist("b03s"));
  EXPECT_FALSE(run.words.words.empty());
  EXPECT_GE(run.seconds, 0.0);
  EXPECT_EQ(run.control_signals, 0u);
}

TEST(Runner, OursRunsAndReportsControls) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  const eval::TechniqueRun run = session.run(session.load_netlist("b08s"));
  EXPECT_FALSE(run.words.words.empty());
  EXPECT_GE(run.seconds, 0.0);
  EXPECT_GT(run.control_signals, 0u);
  EXPECT_GT(run.stats.groups, 0u);
  EXPECT_GT(run.stats.reduction_trials, 0u);
}

TEST(Runner, OursNeverFindsFewerMultibitWordsThanBaseline) {
  pipeline::ArtifactCache cache;
  Session session({}, &cache);
  for (const char* name : {"b03s", "b05s", "b08s"}) {
    const LoadedDesign design = session.load_netlist(name);
    session.config().use_baseline = true;
    const eval::TechniqueRun base = session.run(design);
    session.config().use_baseline = false;
    const eval::TechniqueRun ours = session.run(design);
    EXPECT_GE(ours.words.count_multibit(), base.words.count_multibit())
        << name;
  }
}

}  // namespace
}  // namespace netrev
