// Fault-injection harness: seeded corruptions of family benchmarks pushed
// through the full permissive pipeline (parse -> repair -> validate ->
// identify).  The contract under test is robustness, not output quality:
// no crash or uncaught exception, diagnostics stay bounded, and single-line
// damage costs at most a sliver of the design.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "analysis/domains.h"
#include "common/diagnostics.h"
#include "common/resource_guard.h"
#include "exec/cancel.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"
#include "netlist/repair.h"
#include "netlist/validate.h"
#include "parser/bench_parser.h"
#include "parser/parse_options.h"
#include "parser/verilog_parser.h"
#include "parser/verilog_writer.h"
#include "pipeline/batch.h"
#include "support/corrupt.h"
#include "wordrec/degrade.h"
#include "wordrec/identify.h"

namespace netrev {
namespace {

using netlist::Netlist;
using testing::CorruptionKind;
using testing::kAllCorruptionKinds;

constexpr std::uint64_t kSeedsPerCase = 10;
const char* const kBenchmarks[] = {"b03s", "b08s", "b13s"};

enum class Format { kBench, kVerilog };

struct PipelineOutcome {
  std::size_t parsed_gates = 0;
  std::size_t diagnostics = 0;
  bool usable = false;
  bool identified = false;
};

// Runs one corrupted source through the permissive pipeline.  Returns the
// outcome; throws only on bugs (anything except the documented
// ResourceLimitError escape hatch fails the calling test).
PipelineOutcome run_pipeline(const std::string& source, Format format,
                             const std::string& label) {
  PipelineOutcome outcome;
  diag::Diagnostics diags;
  parser::ParseOptions options;
  options.permissive = true;
  options.filename = label;

  Netlist parsed = format == Format::kBench
                       ? parser::parse_bench(source, options, diags)
                       : parser::parse_verilog(source, options, diags);
  outcome.parsed_gates = parsed.gate_count();

  netlist::RepairResult repaired = netlist::repair(parsed, diags);
  // Mirror the CLI's permissive path: repair cannot fix combinational
  // cycles, and identify's structural pre-pass rejects them.
  analysis::CycleBreakResult decycled =
      analysis::break_combinational_cycles(repaired.netlist, diags);
  if (decycled.cycles_broken > 0)
    repaired.netlist = std::move(decycled.netlist);
  const netlist::ValidationReport report = netlist::validate(repaired.netlist);
  outcome.usable = diags.usable() && report.ok();
  outcome.diagnostics = diags.entries().size();

  if (outcome.usable && repaired.netlist.gate_count() > 0) {
    wordrec::Options wopts;
    // Guard rail, generous for these small designs: a mutation that sends
    // identification into runaway cone walks must abort cleanly.
    wopts.max_cone_work = 5'000'000;
    try {
      (void)wordrec::identify_words(repaired.netlist, wopts);
      outcome.identified = true;
    } catch (const ResourceLimitError&) {
      // Graceful, documented abort — counts as survival, not identification.
    }
  }
  return outcome;
}

std::string source_for(const Netlist& nl, Format format) {
  return format == Format::kBench ? parser::write_bench(nl)
                                  : parser::write_verilog(nl);
}

TEST(FaultInjection, PipelineSurvivesSeededCorruptions) {
  std::size_t mutations = 0;
  std::size_t identified = 0;
  std::size_t single_line_cases = 0;
  std::size_t original_gate_total = 0;
  std::size_t recovered_gate_total = 0;

  for (const char* benchmark : kBenchmarks) {
    const Netlist golden = itc::build_benchmark(benchmark).netlist;
    for (const Format format : {Format::kBench, Format::kVerilog}) {
      const std::string source = source_for(golden, format);
      for (const CorruptionKind kind : kAllCorruptionKinds) {
        for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
          const std::string label =
              std::string(benchmark) +
              (format == Format::kBench ? ".bench" : ".v") + ":" +
              testing::corruption_name(kind) + ":" + std::to_string(seed);
          SCOPED_TRACE(label);

          const std::string corrupted = testing::corrupt(source, kind, seed);
          const PipelineOutcome outcome =
              run_pipeline(corrupted, format, label);
          ++mutations;
          if (outcome.identified) ++identified;

          // Diagnostics must stay bounded no matter the damage.
          EXPECT_LE(outcome.diagnostics, diag::Diagnostics::kDefaultMaxTotal);

          if (testing::single_line_corruption(kind)) {
            ++single_line_cases;
            original_gate_total += golden.gate_count();
            recovered_gate_total += outcome.parsed_gates;
            // One damaged line can never erase a large slice of the design.
            EXPECT_GE(outcome.parsed_gates, golden.gate_count() / 2);
          }
        }
      }
    }
  }

  EXPECT_GE(mutations, 300u);
  ASSERT_GT(single_line_cases, 0u);
  // Across all single-line corruptions, permissive parsing must recover at
  // least 90% of the gates (acceptance bar; in practice it is far higher).
  EXPECT_GE(recovered_gate_total * 10, original_gate_total * 9)
      << "recovered " << recovered_gate_total << " of " << original_gate_total
      << " gates across " << single_line_cases << " single-line corruptions";
  // The pipeline should not merely survive: most mutations stay usable all
  // the way through identification.
  EXPECT_GE(identified * 2, mutations)
      << identified << " of " << mutations << " mutations reached identify";
}

TEST(FaultInjection, LintFlagsEveryNetlistRepairHadToTouch) {
  // Coverage contract for the static-analysis engine: whenever repair() had
  // to change a recovered netlist (tie a dangling net, prune floating logic),
  // linting the PRE-repair netlist with the parse diagnostics must surface at
  // least one finding — repair never fixes a defect lint cannot see.
  std::size_t repaired_cases = 0;
  for (const char* benchmark : kBenchmarks) {
    const Netlist golden = itc::build_benchmark(benchmark).netlist;
    for (const Format format : {Format::kBench, Format::kVerilog}) {
      const std::string source = source_for(golden, format);
      for (const CorruptionKind kind : kAllCorruptionKinds) {
        for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
          const std::string label =
              std::string(benchmark) +
              (format == Format::kBench ? ".bench" : ".v") + ":" +
              testing::corruption_name(kind) + ":" + std::to_string(seed);
          SCOPED_TRACE(label);

          diag::Diagnostics diags;
          parser::ParseOptions options;
          options.permissive = true;
          options.filename = label;
          const std::string corrupted = testing::corrupt(source, kind, seed);
          const Netlist parsed =
              format == Format::kBench
                  ? parser::parse_bench(corrupted, options, diags)
                  : parser::parse_verilog(corrupted, options, diags);

          diag::Diagnostics repair_diags;
          const netlist::RepairResult repaired =
              netlist::repair(parsed, repair_diags);
          if (!repaired.stats.changed()) continue;
          ++repaired_cases;

          const analysis::AnalysisResult lint =
              analysis::analyze(parsed, {}, &diags);
          EXPECT_FALSE(lint.findings.empty())
              << "repair changed the netlist (" << repaired.stats.dangling_tied
              << " tied, " << repaired.stats.floating_pruned
              << " pruned) but lint saw nothing";
        }
      }
    }
  }
  // The sweep must actually exercise the contract.
  EXPECT_GE(repaired_cases, 50u);
}

TEST(FaultInjection, DataflowAndDomainsSurviveSeededCorruptions) {
  // Robustness contract for the new analysis layers: every seeded mutation,
  // taken through the same permissive front end lint uses (parse -> repair ->
  // cycle break), must flow through the ternary dataflow engine, the domain
  // inference, and the full 12-rule analyze() without a crash, hang, or
  // uncaught exception.  Output quality is not asserted — termination and
  // bounded findings are.
  std::size_t mutations = 0;
  for (const char* benchmark : kBenchmarks) {
    const Netlist golden = itc::build_benchmark(benchmark).netlist;
    for (const Format format : {Format::kBench, Format::kVerilog}) {
      const std::string source = source_for(golden, format);
      for (const CorruptionKind kind : kAllCorruptionKinds) {
        for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
          const std::string label =
              std::string(benchmark) +
              (format == Format::kBench ? ".bench" : ".v") + ":" +
              testing::corruption_name(kind) + ":" + std::to_string(seed);
          SCOPED_TRACE(label);

          diag::Diagnostics diags;
          parser::ParseOptions options;
          options.permissive = true;
          options.filename = label;
          const std::string corrupted = testing::corrupt(source, kind, seed);
          const Netlist parsed =
              format == Format::kBench
                  ? parser::parse_bench(corrupted, options, diags)
                  : parser::parse_verilog(corrupted, options, diags);
          netlist::RepairResult repaired = netlist::repair(parsed, diags);
          analysis::CycleBreakResult decycled =
              analysis::break_combinational_cycles(repaired.netlist, diags);
          if (decycled.cycles_broken > 0)
            repaired.netlist = std::move(decycled.netlist);
          ++mutations;

          EXPECT_NO_THROW({
            const analysis::DataflowFacts facts =
                analysis::run_dataflow(
                    netlist::CompactView::build(repaired.netlist));
            ASSERT_EQ(facts.always.size(), repaired.netlist.net_count());
            const analysis::DomainAnalysis domains =
                analysis::analyze_domains(repaired.netlist);
            std::size_t grouped = 0;
            for (const analysis::DomainGroup& group : domains.groups)
              grouped += group.flops.size();
            EXPECT_EQ(grouped, domains.flops.size());
            const analysis::AnalysisResult lint =
                analysis::analyze(repaired.netlist, {}, &diags);
            EXPECT_EQ(lint.rules_run, 12u);
          });
        }
      }
    }
  }
  EXPECT_GE(mutations, 300u);
}

TEST(FaultInjection, CorruptionIsDeterministic) {
  const Netlist golden = itc::build_benchmark("b03s").netlist;
  const std::string source = parser::write_bench(golden);
  for (const CorruptionKind kind : kAllCorruptionKinds) {
    SCOPED_TRACE(testing::corruption_name(kind));
    EXPECT_EQ(testing::corrupt(source, kind, 7),
              testing::corrupt(source, kind, 7));
  }
}

TEST(FaultInjection, KindsProduceDistinctDamage) {
  const Netlist golden = itc::build_benchmark("b03s").netlist;
  const std::string source = parser::write_bench(golden);
  for (const CorruptionKind kind : kAllCorruptionKinds) {
    SCOPED_TRACE(testing::corruption_name(kind));
    EXPECT_NE(testing::corrupt(source, kind, 3), source);
  }
}

TEST(FaultInjection, DegradableIdentificationSurvivesAnyBudget) {
  // Sweep the cone-work budget from "trips instantly" to "never trips": at
  // every setting the degradation ladder must answer (never throw), and the
  // answer at a given budget must be reproducible.
  for (const char* benchmark : kBenchmarks) {
    const Netlist golden = itc::build_benchmark(benchmark).netlist;
    for (const std::size_t budget : {std::size_t{1}, std::size_t{64},
                                     std::size_t{4096}, std::size_t{0}}) {
      SCOPED_TRACE(std::string(benchmark) + " budget " +
                   std::to_string(budget));
      wordrec::Options options;
      options.max_cone_work = budget;
      const wordrec::IdentifyResult first =
          wordrec::identify_words_degradable(golden, options,
                                             exec::DegradePolicy{});
      const wordrec::IdentifyResult second =
          wordrec::identify_words_degradable(golden, options,
                                             exec::DegradePolicy{});
      EXPECT_EQ(first.degrade_level, second.degrade_level);
      EXPECT_EQ(first.degrade_reason, second.degrade_reason);
      EXPECT_EQ(first.words.words.size(), second.words.words.size());
      if (budget == 0) {
        EXPECT_FALSE(first.degraded());
      }
    }
  }
}

TEST(FaultInjection, DeadlineTripsDegradeCorruptedInputsToo) {
  // An already-expired stage deadline plus a corrupted netlist: the ladder
  // must still answer via the groups rung (which never polls) — damage and
  // deadlines compose without crashing.
  const Netlist golden = itc::build_benchmark("b03s").netlist;
  const std::string source = parser::write_bench(golden);
  exec::CancelToken token;
  for (const CorruptionKind kind : kAllCorruptionKinds) {
    SCOPED_TRACE(testing::corruption_name(kind));
    diag::Diagnostics diags;
    parser::ParseOptions parse_options;
    parse_options.permissive = true;
    const Netlist parsed =
        parser::parse_bench(testing::corrupt(source, kind, 11), parse_options,
                            diags);
    netlist::RepairResult repaired = netlist::repair(parsed, diags);
    analysis::CycleBreakResult decycled =
        analysis::break_combinational_cycles(repaired.netlist, diags);
    if (decycled.cycles_broken > 0)
      repaired.netlist = std::move(decycled.netlist);
    if (!diags.usable() || !netlist::validate(repaired.netlist).ok()) continue;

    wordrec::Options options;
    options.checkpoint = exec::Checkpoint(
        token, exec::Deadline::after(std::chrono::milliseconds(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_NO_THROW({
      const wordrec::IdentifyResult result = wordrec::identify_words_degradable(
          repaired.netlist, options, exec::DegradePolicy{});
      (void)result;
    });
  }
}

TEST(FaultInjection, RetriesHealATransientlyMissingBatchInput) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "netrev_transient_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "late.bench").string();
  const std::string contents =
      parser::write_bench(itc::build_benchmark("b03s").netlist);

  // Without retries the not-yet-visible file is a load failure.
  pipeline::BatchOptions no_retry;
  no_retry.keep_going = true;
  const pipeline::BatchResult failed = pipeline::run_batch({path}, no_retry);
  ASSERT_EQ(failed.failed, 1u);
  EXPECT_EQ(failed.entries[0].failed_stage, "load");

  // With retries, a writer that shows up during the backoff window heals the
  // entry: the probe loop spans ~1.2s of backoff doubling from 20ms, the
  // file lands after ~80ms.
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    std::ofstream(path) << contents;
  });
  pipeline::BatchOptions with_retry;
  with_retry.keep_going = true;
  with_retry.retries = 6;
  const pipeline::BatchResult healed =
      pipeline::run_batch({path}, with_retry);
  writer.join();
  EXPECT_TRUE(healed.all_ok()) << healed.render_text();
  fs::remove_all(dir);
}

TEST(FaultInjection, TruncationNeverCrashesAtAnyLength) {
  // Sweep every prefix length of a small design through the permissive
  // parser: byte-level truncation must always yield a netlist + diagnostics.
  const Netlist golden = itc::build_benchmark("b03s").netlist;
  const std::string source = parser::write_bench(golden);
  for (std::size_t len = 0; len <= source.size(); len += 97) {
    diag::Diagnostics diags;
    parser::ParseOptions options;
    options.permissive = true;
    EXPECT_NO_THROW({
      (void)parser::parse_bench(source.substr(0, len), options, diags);
    });
  }
}

}  // namespace
}  // namespace netrev
