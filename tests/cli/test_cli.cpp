#include "cli/cli.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "exec/cancel.h"
#include "jsonin/jsonin.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/protocol.h"

namespace netrev::cli {
namespace {

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.exit_code = run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

// A temp directory per test binary run.
std::string temp_dir() {
  const auto dir =
      std::filesystem::temp_directory_path() / "netrev_cli_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliRun r = run({});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliRun r = run({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("identify"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, StatsOnFamilyBenchmark) {
  const CliRun r = run({"stats", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("gates=169"), std::string::npos);
  EXPECT_NE(r.out.find("0 error(s)"), std::string::npos);
}

TEST(Cli, StatsOnMissingFileFails) {
  const CliRun r = run({"stats", "/nonexistent.v"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, ReferenceListsWords) {
  const CliRun r = run({"reference", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("7 reference word(s)"), std::string::npos);
  EXPECT_NE(r.out.find("CODA0_reg"), std::string::npos);
}

TEST(Cli, IdentifyTextOutput) {
  const CliRun r = run({"identify", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("1 control signal(s)"), std::string::npos);
  EXPECT_NE(r.out.find("unified via"), std::string::npos);
}

TEST(Cli, IdentifyJsonOutput) {
  const CliRun r = run({"identify", "b03s", "--json"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out.find("found"), std::string::npos);  // no prose
  EXPECT_NE(r.out.find("\"control_signals\""), std::string::npos);
}

TEST(Cli, IdentifyBaseMode) {
  const CliRun r = run({"identify", "b03s", "--base"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("shape hashing"), std::string::npos);
}

TEST(Cli, IdentifyWithOptions) {
  const CliRun r =
      run({"identify", "b03s", "--depth", "3", "--max-assign", "1",
           "--cross-group"});
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Cli, IdentifyRejectsBadFlag) {
  const CliRun r = run({"identify", "b03s", "--bogus"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(Cli, GenerateWritesFiles) {
  const std::string dir = temp_dir();
  const CliRun r = run({"generate", "b03s", "-o", dir});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/b03s.v"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/b03s.bench"));
}

TEST(Cli, IdentifyParsesGeneratedVerilogFile) {
  const std::string dir = temp_dir();
  run({"generate", "b08s", "-o", dir});
  const CliRun r = run({"identify", dir + "/b08s.v"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("3 control signal(s)"), std::string::npos);
}

TEST(Cli, IdentifyParsesGeneratedBenchFile) {
  const std::string dir = temp_dir();
  run({"generate", "b08s", "-o", dir});
  const CliRun r = run({"identify", dir + "/b08s.bench", "--base"});
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Cli, ReduceWithAssignment) {
  const CliRun r = run({"reduce", "b03s", "--assign", "U201=0"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("-> "), std::string::npos);
}

TEST(Cli, ReduceWritesVerilog) {
  const std::string path = temp_dir() + "/reduced.v";
  const CliRun r = run({"reduce", "b03s", "--assign", "U201=0", "-o", path});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(path));
  const CliRun stats = run({"stats", path});
  EXPECT_EQ(stats.exit_code, 0);
}

TEST(Cli, ReduceRejectsMalformedAssign) {
  // Malformed flag syntax is a usage error (2); a well-formed assignment to
  // a net the design does not have is an input error (1).
  EXPECT_EQ(run({"reduce", "b03s", "--assign", "U201"}).exit_code, 2);
  EXPECT_EQ(run({"reduce", "b03s", "--assign", "U201=2"}).exit_code, 2);
  EXPECT_EQ(run({"reduce", "b03s", "--assign", "NOPE=0"}).exit_code, 1);
  EXPECT_EQ(run({"reduce", "b03s"}).exit_code, 2);
}

TEST(Cli, LiftEmitsVerifiedSchemaV1Document) {
  const CliRun r = run({"lift", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out.rfind("{\"schema_version\":1,", 0), 0u)
      << r.out.substr(0, 60);
  EXPECT_NE(r.out.find("\"verdict\":\"equivalent\""), std::string::npos);
  EXPECT_NE(r.out.find("\"ops\":["), std::string::npos);
}

TEST(Cli, LiftNoVerifyReportsUnchecked) {
  const CliRun r = run({"lift", "b03s", "--no-verify"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("\"verdict\":\"unchecked\""), std::string::npos);
}

TEST(Cli, LiftVectorsFlagRejectsZero) {
  const CliRun r = run({"lift", "b03s", "--vectors", "0"});
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, LiftWritesOutputFile) {
  const std::string path = temp_dir() + "/lifted.json";
  const CliRun r = run({"lift", "b03s", "-o", path});
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"verdict\":\"equivalent\""), std::string::npos);
}

// With the artifact cache disabled, lift must still lift once: the document
// and the exit-code verdict come from the same result.
TEST(Cli, LiftWithCacheDisabledLiftsOnce) {
  const auto document_and_profile = [](const std::string& out) {
    // The profile JSON is the last line of stdout; the document precedes it.
    const auto newline = out.find_last_of('\n', out.size() - 2);
    return std::pair{out.substr(0, newline + 1), out.substr(newline + 1)};
  };
  const auto counter = [](const std::string& profile, const std::string& name) {
    const std::string key = "\"" + name + "\":";
    const auto at = profile.find(key);
    if (at == std::string::npos) return std::string("absent");
    return profile.substr(at + key.size(),
                          profile.find_first_of(",}", at) - at - key.size());
  };
  // The uncached run goes first: --cache-entries 0 empties the process-wide
  // cache, so the second run is a cold cached run, and its explicit default
  // capacity leaves the cache as later tests expect it.
  const CliRun uncached =
      run({"lift", "b12s", "--cache-entries", "0", "--profile=json"});
  const CliRun cached =
      run({"lift", "b12s", "--cache-entries", "512", "--profile=json"});
  ASSERT_EQ(uncached.exit_code, 0) << uncached.err;
  ASSERT_EQ(cached.exit_code, 0) << cached.err;
  const auto [uncached_doc, uncached_profile] =
      document_and_profile(uncached.out);
  const auto [cached_doc, cached_profile] = document_and_profile(cached.out);
  EXPECT_EQ(uncached_doc, cached_doc);
  EXPECT_EQ(counter(cached_profile, "sim_vectors_run"), "64");
  EXPECT_EQ(counter(uncached_profile, "sim_vectors_run"),
            counter(cached_profile, "sim_vectors_run"));
  EXPECT_NE(uncached_profile.find("{\"name\":\"lift\",\"ns\":"),
            std::string::npos);
  EXPECT_NE(uncached_profile.find("\"calls\":1,\"children\":[{\"name\":"
                                  "\"compact\""),
            std::string::npos)
      << uncached_profile.substr(0, 300);
}

TEST(Cli, EvaluateShowsPerWordOutcomes) {
  const CliRun r = run({"evaluate", "b08s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("full: 4"), std::string::npos);
  EXPECT_NE(r.out.find("MISSING  STATO_reg"), std::string::npos);
}

TEST(Cli, EvaluateBaseModeFindsFewer) {
  const CliRun ours = run({"evaluate", "b08s"});
  const CliRun base = run({"evaluate", "b08s", "--base"});
  EXPECT_EQ(base.exit_code, 0);
  EXPECT_NE(base.out.find("full: 2"), std::string::npos);
  EXPECT_NE(ours.out.find("full: 4"), std::string::npos);
}

TEST(Cli, EvaluateJson) {
  const CliRun r = run({"evaluate", "b08s", "--json"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("\"fully_found\":4"), std::string::npos);
}

TEST(Cli, EvaluateFailsWithoutReferenceNames) {
  // A design whose flops have no indexed names.
  const std::string path = temp_dir() + "/noref.v";
  std::ofstream(path) << "module noref (d, q);\n input d;\n output q;\n"
                         " DFF r0 (q, d);\nendmodule\n";
  const CliRun r = run({"evaluate", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("no reference words"), std::string::npos);
}

TEST(Cli, PropagateDerivesCandidates) {
  const CliRun r = run({"propagate", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("candidate word(s)"), std::string::npos);
  EXPECT_NE(r.out.find("[leaves]"), std::string::npos);
}

TEST(Cli, ScanInsertsChain) {
  const std::string path = temp_dir() + "/scanned.v";
  const CliRun r = run({"scan", "b03s", "-o", path});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("30 scan mux(es)"), std::string::npos);
  const CliRun stats = run({"stats", path});
  EXPECT_EQ(stats.exit_code, 0);
}

TEST(Cli, IdentifyTraceNarratesDecisions) {
  const CliRun r = run({"identify", "b03s", "--trace"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("control signals:"), std::string::npos);
  EXPECT_NE(r.out.find("UNIFIED via"), std::string::npos);
}

TEST(Cli, DotEmitsGraph) {
  const CliRun r = run({"dot", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("digraph netlist"), std::string::npos);
  EXPECT_NE(r.out.find("fillcolor="), std::string::npos);
}

TEST(Cli, DotAcceptsDepthZero) {
  // dot reads --depth as the depth of the cones it draws, where 0 (its
  // default) means whole cones.
  const CliRun zero = run({"dot", "b03s", "--depth", "0"});
  EXPECT_EQ(zero.exit_code, 0) << zero.err;
  EXPECT_EQ(zero.out, run({"dot", "b03s"}).out);
}

TEST(Cli, ReduceRejectsDepthAndMaxAssign) {
  // reduce propagates the given assignment and identifies no words, so the
  // identification flags are usage errors there.
  for (const char* flag : {"--depth", "--max-assign"})
    for (const char* value : {"0", "2"}) {
      const CliRun r =
          run({"reduce", "b03s", "--assign", "U201=0", flag, value});
      EXPECT_EQ(r.exit_code, 2) << flag << ' ' << value;
      EXPECT_NE(r.err.find("is not valid for 'reduce'"), std::string::npos)
          << r.err;
    }
}

TEST(Cli, DotStopsAtTheDeadline) {
  // dot identifies words under the Session's stage checkpoint, so an
  // expired deadline stops it as it stops identify.  b18s takes far longer
  // than 1 ms to generate, so the deadline is spent by identify's first
  // poll.
  const CliRun dot =
      run({"dot", "b18s", "--timeout", "1", "--degrade", "off"});
  EXPECT_EQ(dot.exit_code, 5) << dot.err;
  EXPECT_NE(dot.err.find("deadline exceeded"), std::string::npos) << dot.err;
  EXPECT_EQ(
      run({"identify", "b18s", "--timeout", "1", "--degrade", "off"}).exit_code,
      5);
}

TEST(Cli, DotDegradesUnderItsDeadline) {
  // dot identifies through the Session, so an expired deadline walks the
  // degradation ladder as identify's does.  The rung is reported in the
  // diagnostics (the --diag-json line after the graph), never in the graph.
  const CliRun dot = run({"dot", "b18s", "--timeout", "1", "--diag-json"});
  EXPECT_EQ(dot.exit_code, 0) << dot.err;
  const std::size_t diag_line = dot.out.rfind('\n', dot.out.size() - 2);
  ASSERT_NE(diag_line, std::string::npos) << dot.out;
  const std::string graph = dot.out.substr(0, diag_line + 1);
  const std::string diags = dot.out.substr(diag_line + 1);
  EXPECT_EQ(graph.rfind("digraph", 0), 0u) << graph.substr(0, 80);
  EXPECT_EQ(graph.find("degraded"), std::string::npos);
  EXPECT_NE(diags.find("identification degraded to 'groups'"),
            std::string::npos)
      << diags;
}

TEST(Cli, DotWritesFile) {
  const std::string path = temp_dir() + "/g.dot";
  const CliRun r = run({"dot", "b03s", "--depth", "4", "-o", path});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(Cli, DotOutputIsThePrintedGraphWrittenAtomically) {
  const auto dir = std::filesystem::path(temp_dir()) / "dot_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "b03s.dot").string();
  const CliRun printed = run({"dot", "b03s"});
  const CliRun written = run({"dot", "b03s", "-o", path});
  ASSERT_EQ(written.exit_code, 0) << written.err;
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, printed.out);
  // The temp+rename writer leaves no sibling behind.
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    entries.push_back(entry.path().filename().string());
  EXPECT_EQ(entries, std::vector<std::string>{"b03s.dot"});
}

TEST(Cli, IdentifyJsonWithTraceIsAUsageError) {
  // The narrative belongs to the text report; the JSON document has no
  // place for it, so the combination is refused before any design loads.
  const CliRun r = run({"identify", "b03s", "--json", "--trace"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_TRUE(r.out.empty()) << r.out;
  EXPECT_NE(r.err.find("--trace narrates the text report"), std::string::npos)
      << r.err;
}

TEST(Cli, MaxAssignZeroIdentifiesTheBaseWords) {
  // With no reduction trials allowed, Ours is Base: the same words, and no
  // control-signal search (zero candidates).
  const CliRun ours = run({"identify", "b08s", "--max-assign", "0", "--json"});
  const CliRun base = run({"identify", "b08s", "--base", "--json"});
  ASSERT_EQ(ours.exit_code, 0) << ours.err;
  ASSERT_EQ(base.exit_code, 0) << base.err;
  jsonin::Value ours_doc, base_doc;
  std::string error;
  ASSERT_TRUE(jsonin::parse(ours.out, ours_doc, error)) << error;
  ASSERT_TRUE(jsonin::parse(base.out, base_doc, error)) << error;
  const jsonin::Value* ours_words = ours_doc.find("words");
  const jsonin::Value* base_words = base_doc.find("words");
  ASSERT_NE(ours_words, nullptr);
  ASSERT_NE(base_words, nullptr);
  EXPECT_EQ(ours.out.substr(ours_words->begin,
                            ours_words->end - ours_words->begin),
            base.out.substr(base_words->begin,
                            base_words->end - base_words->begin));
  const jsonin::Value* stats = ours_doc.find("stats");
  ASSERT_NE(stats, nullptr);
  const jsonin::Value* candidates = stats->find("control_signal_candidates");
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->number, 0u);
  EXPECT_GT(stats->find("partial_subgroups")->number, 0u);
}

TEST(Cli, TableSingleBenchmark) {
  const CliRun r = run({"table", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("b03s"), std::string::npos);
  EXPECT_NE(r.out.find("85.7"), std::string::npos);
}

TEST(Cli, TableJson) {
  const CliRun r = run({"table", "b03s", "--json"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("\"benchmark\":\"b03s\""), std::string::npos);
}

// --- error paths and the permissive pipeline -------------------------------

// A damaged .bench file: one malformed gate line in an otherwise fine design.
std::string write_damaged_bench() {
  const std::string path = temp_dir() + "/damaged.bench";
  std::ofstream(path) << "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
                         "n1 = NAND(a, b)\nn2 = BOGUS(n1)\nq = NOT(n1)\n";
  return path;
}

TEST(Cli, ErrorsGoToErrStreamNotOut) {
  const CliRun r = run({"stats", "/nonexistent.bench"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_TRUE(r.out.empty());
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, UsageDocumentsExitCodes) {
  const CliRun r = run({"help"});
  EXPECT_NE(r.out.find("exit codes"), std::string::npos);
  EXPECT_NE(r.out.find("--permissive"), std::string::npos);
  EXPECT_NE(r.out.find("--diag-json"), std::string::npos);
  EXPECT_NE(r.out.find("--max-errors"), std::string::npos);
}

TEST(Cli, MalformedNetlistStrictFails) {
  const std::string path = write_damaged_bench();
  const CliRun r = run({"stats", path});
  EXPECT_EQ(r.exit_code, 1);
  // Strict errors carry a real position.
  EXPECT_NE(r.err.find("line 5"), std::string::npos);
  EXPECT_NE(r.err.find("column"), std::string::npos);
}

TEST(Cli, MalformedNetlistPermissiveRecoversWithExitCode3) {
  const std::string path = write_damaged_bench();
  const CliRun r = run({"stats", path, "--permissive"});
  EXPECT_EQ(r.exit_code, 3);  // recovered with warnings
  EXPECT_NE(r.out.find("gates="), std::string::npos);
  EXPECT_TRUE(r.err.empty());
}

TEST(Cli, EmptyBenchPortNameIsAParseError) {
  // Strict loads stop at the line:column; permissive loads skip the line.
  const std::string path = temp_dir() + "/empty_port.bench";
  std::ofstream(path) << "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nOUTPUT( )\n"
                         "n1 = NAND(a, b)\nq = NOT(n1)\n";
  const CliRun strict = run({"stats", path});
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.err.find("empty port name at line 4, column 8"),
            std::string::npos)
      << strict.err;

  const CliRun permissive = run({"stats", path, "--permissive", "--diag-json"});
  EXPECT_EQ(permissive.exit_code, 3);
  EXPECT_NE(permissive.out.find("gates=2"), std::string::npos);
  EXPECT_NE(permissive.out.find("\"message\":\"empty port name; line "
                                "skipped\",\"file\":\"" + path +
                                "\",\"line\":4,\"column\":8"),
            std::string::npos)
      << permissive.out;
}

TEST(Cli, DiagJsonPrintsDiagnostics) {
  const std::string path = write_damaged_bench();
  const CliRun r = run({"stats", path, "--permissive", "--diag-json"});
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"line\":5"), std::string::npos);
}

TEST(Cli, PermissiveCleanInputStillExitsZero) {
  // A design with nothing to recover or repair: every net is read, every
  // net is driven.  (Family benchmarks carry a few fanout-free gates that
  // repair legitimately prunes, so they exit 3 under --permissive.)
  const std::string path = temp_dir() + "/clean.bench";
  std::ofstream(path) << "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n"
                         "n1 = NAND(a, b)\nq = NOT(n1)\n";
  const CliRun r = run({"stats", path, "--permissive"});
  EXPECT_EQ(r.exit_code, 0);
}

TEST(Cli, UnusableInputExitsFour) {
  // Nothing recoverable: pure garbage is not a netlist.
  const std::string path = temp_dir() + "/garbage.v";
  std::ofstream(path) << "this is not verilog at all ((((\n%%%%\n";
  const CliRun strict = run({"stats", path});
  EXPECT_EQ(strict.exit_code, 1);
  const CliRun permissive = run({"stats", path, "--permissive"});
  // Either nothing parses (empty netlist is valid => exit 3) or the input is
  // rejected as unusable (exit 4); it must never exit 0 or crash.
  EXPECT_TRUE(permissive.exit_code == 3 || permissive.exit_code == 4)
      << "exit " << permissive.exit_code;
}

TEST(Cli, PermissiveMissingFileIsUnusable) {
  const CliRun r = run({"stats", "/nonexistent.bench", "--permissive"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, MaxErrorsBoundsDiagnostics) {
  // Many bad lines; --max-errors 2 makes the parser give up early.
  const std::string path = temp_dir() + "/manybad.bench";
  std::ofstream file(path);
  file << "INPUT(a)\n";
  for (int i = 0; i < 50; ++i) file << "x" << i << " = BAD(a)\n";
  file.close();
  const CliRun r =
      run({"stats", path, "--permissive", "--max-errors", "2", "--diag-json"});
  EXPECT_NE(r.out.find("giving up"), std::string::npos);
}

TEST(Cli, PermissiveIdentifyRunsOnDamagedDesign) {
  // End-to-end: generate, damage one line, identify permissively.
  const std::string dir = temp_dir();
  run({"generate", "b03s", "-o", dir});
  std::ifstream in(dir + "/b03s.bench");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = text.find("U201");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "U2#1");
  const std::string damaged = dir + "/b03s_damaged.bench";
  std::ofstream(damaged) << text;
  const CliRun r = run({"identify", damaged, "--permissive"});
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("word(s)"), std::string::npos);
}

// --- lint ------------------------------------------------------------------

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = temp_dir() + "/" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(Cli, LintCleanFamilyBenchmarksHaveNoFindings) {
  for (const char* benchmark : {"b03s", "b08s", "b13s"}) {
    const CliRun r = run({"lint", benchmark, "--fail-on", "warning"});
    EXPECT_EQ(r.exit_code, 0) << benchmark << "\n" << r.out;
    EXPECT_NE(r.out.find("0 finding(s)"), std::string::npos) << benchmark;
  }
}

TEST(Cli, LintFlagsSeededCombinationalCycle) {
  const std::string path = write_file("cycle.bench",
                                      "INPUT(a)\n"
                                      "OUTPUT(y)\n"
                                      "x = AND(a, y)\n"
                                      "y = BUF(x)\n");
  const CliRun r = run({"lint", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("error[comb-cycle]"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("x -> y -> x"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("fix:"), std::string::npos) << r.out;
}

TEST(Cli, LintFlagsSeededMultiDrivenNet) {
  const std::string path = write_file("multidrive.bench",
                                      "INPUT(a)\n"
                                      "INPUT(b)\n"
                                      "OUTPUT(y)\n"
                                      "y = AND(a, b)\n"
                                      "y = OR(a, b)\n");
  const CliRun r = run({"lint", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("error[multi-driven]"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("'y' has 2 drivers"), std::string::npos) << r.out;
}

TEST(Cli, LintFlagsSeededDeadLogicOnlyAtWarningThreshold) {
  const std::string path = write_file("dead.bench",
                                      "INPUT(a)\n"
                                      "INPUT(b)\n"
                                      "OUTPUT(y)\n"
                                      "y = AND(a, b)\n"
                                      "dead = NOT(a)\n");
  const CliRun relaxed = run({"lint", path});
  EXPECT_EQ(relaxed.exit_code, 0);  // warnings only, default --fail-on=error
  EXPECT_NE(relaxed.out.find("warning[dead-logic]"), std::string::npos);

  const CliRun strict = run({"lint", path, "--fail-on=warning"});
  EXPECT_EQ(strict.exit_code, 1);
}

TEST(Cli, LintRulesFilterRestrictsTheRun) {
  const std::string path = write_file("dead2.bench",
                                      "INPUT(a)\n"
                                      "INPUT(b)\n"
                                      "OUTPUT(y)\n"
                                      "y = AND(a, b)\n"
                                      "dead = NOT(a)\n");
  const CliRun r = run({"lint", path, "--rules", "comb-cycle,multi-driven"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("0 finding(s)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("2 rule(s) run"), std::string::npos) << r.out;
}

TEST(Cli, LintUnknownRuleIsAnError) {
  const CliRun r = run({"lint", "b03s", "--rules", "bogus"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown analysis rule"), std::string::npos);
}

TEST(Cli, LintBadFailOnValueIsAnError) {
  const CliRun r = run({"lint", "b03s", "--fail-on", "fatal"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--fail-on expects"), std::string::npos);
}

TEST(Cli, LintUnknownRuleErrorListsTheKnownIds) {
  const CliRun r = run({"lint", "b03s", "--rules", "const-net,typo-rule"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown analysis rule 'typo-rule'"),
            std::string::npos);
  EXPECT_NE(r.err.find("known rules:"), std::string::npos);
  EXPECT_NE(r.err.find("mixed-domain-word"), std::string::npos);
}

TEST(Cli, LintListRulesPrintsTheRegistry) {
  const CliRun r = run({"lint", "--list-rules"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("12 rule(s)"), std::string::npos) << r.out;
  for (const char* id : {"comb-cycle", "const-net", "stuck-ff",
                         "redundant-mux", "mixed-domain-word"})
    EXPECT_NE(r.out.find(id), std::string::npos) << id;
  EXPECT_NE(r.out.find("warning"), std::string::npos);
  EXPECT_NE(r.out.find("error"), std::string::npos);
}

TEST(Cli, LintListRulesRejectsADesignArgument) {
  const CliRun r = run({"lint", "b03s", "--list-rules"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--list-rules"), std::string::npos);
}

TEST(Cli, LintDataflowRulesRunCleanOnFamilies) {
  const CliRun r = run({"lint", "b03s", "--rules",
                        "const-net,stuck-ff,redundant-mux,mixed-domain-word",
                        "--fail-on=warning"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("0 finding(s)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("4 rule(s) run"), std::string::npos) << r.out;
}

TEST(Cli, IdentifyUseDataflowMatchesDefaultOutput) {
  const CliRun plain = run({"identify", "b04s", "--json"});
  const CliRun pruned = run({"identify", "b04s", "--json", "--use-dataflow"});
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(pruned.exit_code, 0);
  EXPECT_EQ(plain.out, pruned.out);  // no derived constants in the family
}

TEST(Cli, UseDataflowIsRejectedWhereItHasNoMeaning) {
  const CliRun r = run({"stats", "b03s", "--use-dataflow"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("not valid"), std::string::npos);
}

TEST(Cli, LintDiagJsonCarriesFindings) {
  const std::string path = write_file("cycle2.bench",
                                      "INPUT(a)\n"
                                      "OUTPUT(y)\n"
                                      "x = AND(a, y)\n"
                                      "y = BUF(x)\n");
  const CliRun r = run({"lint", path, "--diag-json"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(r.out.find("[comb-cycle]"), std::string::npos);
}

TEST(Cli, LintUnreadableFileIsUnusableInput) {
  const CliRun r = run({"lint", "/nonexistent/design.bench"});
  EXPECT_EQ(r.exit_code, 4);
}

TEST(Cli, EvaluateTextIncludesAnalysisSummary) {
  const CliRun r = run({"evaluate", "b03s"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("static analysis: 0 finding(s)"), std::string::npos)
      << r.out;
}

TEST(Cli, EvaluateJsonWrapsEvaluationAndAnalysis) {
  const CliRun r = run({"evaluate", "b03s", "--json"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out.rfind("{\"schema_version\":1,\"evaluation\":", 0), 0u)
      << r.out.substr(0, 80);
  EXPECT_NE(r.out.find("\"analysis\":{\"schema_version\":1,\"findings\":[]"),
            std::string::npos)
      << r.out;
}

// The serve evaluate op answers with the bytes the one-shot command prints,
// for either technique.
TEST(Cli, ServeEvaluateIsByteIdenticalToEvaluateJson) {
  namespace protocol = pipeline::protocol;
  for (bool base : {false, true}) {
    std::vector<std::string> args = {"evaluate", "b08s", "--json"};
    if (base) args.push_back("--base");
    const CliRun r = run(args);
    ASSERT_EQ(r.exit_code, 0) << r.err;

    pipeline::ArtifactCache cache;
    protocol::ExecutorConfig config;
    config.cache = &cache;
    protocol::Executor executor(config);
    protocol::Request request;
    request.op = protocol::Op::kEvaluate;
    request.design = "b08s";
    request.options.base = base;
    const protocol::Response response =
        executor.execute(request, exec::CancelToken());
    ASSERT_EQ(response.status, protocol::Status::kOk) << response.error;
    EXPECT_EQ(response.result + "\n", r.out) << "base=" << base;
  }
}

TEST(Cli, PermissiveLoadBreaksCyclesAndIdentifyProceeds) {
  const std::string path = write_file("cycle3.bench",
                                      "INPUT(a)\n"
                                      "OUTPUT(y)\n"
                                      "x = AND(a, y)\n"
                                      "y = BUF(x)\n");
  // Strict load: the identify pre-pass rejects the cycle.
  const CliRun strict = run({"identify", path});
  EXPECT_EQ(strict.exit_code, 1);
  EXPECT_NE(strict.err.find("combinational cycle"), std::string::npos);

  // Permissive load: the cycle is cut (with a diagnostic) and identify runs.
  const CliRun permissive = run({"identify", path, "--permissive"});
  EXPECT_EQ(permissive.exit_code, 3);
  EXPECT_NE(permissive.out.find("word(s)"), std::string::npos);
}

// A strict load keeps a combinational cycle, and the baseline technique
// never runs identify's acyclic pre-pass, so the cycle reaches the random
// sampler: lift's verification and evaluate's functional screen.  That is
// an input error, exit 1 naming the cycle, never a contract violation.
const char* const kCyclicWithWord =
    "INPUT(a)\n"
    "INPUT(b)\n"
    "OUTPUT(y)\n"
    "OUTPUT(d0)\n"
    "R_REG_0_ = DFF(d0)\n"
    "R_REG_1_ = DFF(d1)\n"
    "x = AND(a, y)\n"
    "y = BUF(x)\n"
    "d0 = XOR(R_REG_0_, x)\n"
    "d1 = XOR(R_REG_1_, x)\n";

TEST(Cli, LiftBaseOnACyclicDesignIsAnInputError) {
  const std::string path = write_file("cycle_lift.bench", kCyclicWithWord);
  const CliRun r = run({"lift", path, "--base"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("combinational cycle"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
}

TEST(Cli, EvaluateBaseOnACyclicDesignIsAnInputError) {
  const std::string path = write_file("cycle_eval.bench", kCyclicWithWord);
  const CliRun r = run({"evaluate", path, "--base"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("combinational cycle"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
}

// The smallest strict-loaded cycle: no flops, one two-gate loop.
const char* const kCyclicNoFlops =
    "INPUT(a)\n"
    "OUTPUT(y)\n"
    "x = AND(a, y)\n"
    "y = OR(x, a)\n";

TEST(Cli, StatsOnACyclicDesignPrintsNoDepth) {
  const std::string path = write_file("cycle_stats.bench", kCyclicNoFlops);
  const CliRun r = run({"stats", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find(", comb depth n/a (combinational cycle)\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("validation: 1 error(s)"), std::string::npos) << r.out;
}

// A design insert_scan_chain cannot scan is bad input (exit 1), not a
// malformed command line (exit 2).
TEST(Cli, ScanOfADesignWithoutFlopsIsAnInputError) {
  const std::string path = write_file("cycle_scan.bench", kCyclicNoFlops);
  const CliRun r = run({"scan", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("design has no flops"), std::string::npos) << r.err;
}

TEST(Cli, ScanOfADesignUsingAScanNetNameIsAnInputError) {
  const std::string path = write_file("scan_name.bench",
                                      "INPUT(a)\n"
                                      "OUTPUT(q)\n"
                                      "SCAN_IN = NOT(a)\n"
                                      "q = DFF(SCAN_IN)\n");
  const CliRun r = run({"scan", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("net 'SCAN_IN' already exists"), std::string::npos)
      << r.err;
}

TEST(Cli, ProfilePrintsStageTreeAndCounters) {
  // Earlier tests already identified b03s through the process-global artifact
  // cache; clear it so this run recomputes and the stage counters (e.g.
  // cones_hashed) are populated.
  pipeline::ArtifactCache::global().clear();
  const CliRun r = run({"identify", "b03s", "--profile"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("profile (total"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("- load:"), std::string::npos);
  EXPECT_NE(r.out.find("- identify:"), std::string::npos);
  EXPECT_NE(r.out.find("cones_hashed:"), std::string::npos);
}

TEST(Cli, ProfileJsonEmitsStageTree) {
  const CliRun r = run({"evaluate", "b03s", "--profile=json"});
  EXPECT_EQ(r.exit_code, 0);
  // The profile JSON is the last line of stdout.
  const auto newline = r.out.find_last_of('\n', r.out.size() - 2);
  const std::string last = r.out.substr(newline + 1);
  EXPECT_EQ(last.rfind("{\"total_ns\":", 0), 0u) << last.substr(0, 80);
  EXPECT_NE(last.find("\"name\":\"identify\""), std::string::npos);
  EXPECT_NE(last.find("\"counters\":{"), std::string::npos);
}

TEST(Cli, JobsFlagAcceptedAndOutputMatchesSerial) {
  const CliRun serial = run({"identify", "b04s", "--jobs", "1"});
  const CliRun parallel = run({"identify", "b04s", "-j", "4"});
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  EXPECT_EQ(serial.out, parallel.out);
}

TEST(Cli, JobsZeroRejected) {
  const CliRun r = run({"identify", "b03s", "--jobs", "0"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(Cli, DepthZeroIsAUsageError) {
  // A cone of depth 0 holds no gate, so the commands that identify words
  // under --depth refuse it on the command line.  serve gets an endpoint it
  // cannot use, so a regression fails here instead of serving forever.
  const std::vector<std::vector<std::string>> commands = {
      {"identify", "b03s", "--depth", "0"},
      {"batch", "b03s", "--depth", "0", "--json"},
      {"serve", "--depth", "0", "--listen", "nonsense"}};
  for (const std::vector<std::string>& args : commands) {
    const CliRun r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args[0];
    EXPECT_TRUE(r.out.empty()) << args[0] << ": " << r.out;
    EXPECT_NE(r.err.find("--depth expects a positive cone depth"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.err.find("precondition"), std::string::npos) << r.err;
  }
}

// --- version, table-driven flags, and batch --------------------------------

TEST(Cli, VersionFlagPrintsVersionEverywhere) {
  const CliRun top = run({"--version"});
  EXPECT_EQ(top.exit_code, 0);
  EXPECT_EQ(top.out.rfind("netrev ", 0), 0u) << top.out;
  // As a global flag it works on any subcommand, before any work happens.
  const CliRun sub = run({"identify", "b03s", "--version"});
  EXPECT_EQ(sub.exit_code, 0);
  EXPECT_EQ(sub.out, top.out);
}

TEST(Cli, UsageListsBatchAndGlobalFlags) {
  const CliRun r = run({"help"});
  EXPECT_NE(r.out.find("batch"), std::string::npos);
  EXPECT_NE(r.out.find("--keep-going"), std::string::npos);
  EXPECT_NE(r.out.find("--version"), std::string::npos);
  EXPECT_NE(r.out.find("--jobs"), std::string::npos);
}

TEST(Cli, FlagNotValidForCommandIsRejected) {
  const CliRun r = run({"stats", "b03s", "--depth", "3"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("not valid for"), std::string::npos) << r.err;
}

TEST(Cli, BatchRunsFamiliesAndPrintsSummary) {
  const CliRun r = run({"batch", "b03s", "b04s"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("b03s"), std::string::npos);
  EXPECT_NE(r.out.find("batch: 2 total, 2 ok"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cache:"), std::string::npos);
}

TEST(Cli, BatchJsonEmbedsTheSingleRunIdentifyBytes) {
  const CliRun batch = run({"batch", "b03s", "--json"});
  EXPECT_EQ(batch.exit_code, 0) << batch.err;
  const CliRun single = run({"identify", "b03s", "--json"});
  std::string body = single.out;
  if (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_NE(batch.out.find(body), std::string::npos)
      << "batch JSON does not embed the identify --json bytes";
  EXPECT_NE(batch.out.find("\"version\":"), std::string::npos);
  EXPECT_NE(batch.out.find("\"summary\":"), std::string::npos);
}

TEST(Cli, BatchStopsOrKeepsGoingOnFailure) {
  const std::string missing = temp_dir() + "/no_such_input.bench";
  const CliRun stop = run({"batch", missing, "b03s"});
  EXPECT_EQ(stop.exit_code, 1);
  EXPECT_NE(stop.out.find("1 failed, 1 skipped"), std::string::npos)
      << stop.out;
  const CliRun keep = run({"batch", missing, "b03s", "--keep-going"});
  EXPECT_EQ(keep.exit_code, 1);
  EXPECT_NE(keep.out.find("1 ok, 1 failed, 0 skipped"), std::string::npos)
      << keep.out;
}

TEST(Cli, BatchWarmRerunIsByteIdenticalWithCacheHits) {
  // The acceptance gate: rerunning the same batch in one process must hit
  // the artifact cache without changing a byte of the JSON.
  const CliRun cold = run({"batch", "b04s", "b08s", "--json"});
  const CliRun warm = run({"batch", "b04s", "b08s", "--json", "--profile"});
  EXPECT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_EQ(warm.exit_code, 0) << warm.err;
  // The warm run prints the same JSON, then the profile after it.
  EXPECT_EQ(warm.out.rfind(cold.out, 0), 0u)
      << "warm batch JSON diverged from the cold run";
  const auto pos = warm.out.find("cache.hits:");
  ASSERT_NE(pos, std::string::npos) << warm.out;
  const int hits = std::atoi(warm.out.c_str() + pos + 11);
  EXPECT_GT(hits, 0) << warm.out;
}

TEST(Cli, BatchExpandsManifestFiles) {
  const std::string manifest = temp_dir() + "/cli_manifest.txt";
  std::ofstream(manifest) << "# two families\nb03s\nb04s\n";
  const CliRun r = run({"batch", manifest});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("batch: 2 total, 2 ok"), std::string::npos) << r.out;
}

TEST(Cli, BatchRejectsEmptyGlob) {
  const CliRun r = run({"batch", temp_dir() + "/*.nope"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("glob matched no files"), std::string::npos) << r.err;
}

TEST(Cli, IdentifyOutputIsCommittedAtomically) {
  const std::string path = temp_dir() + "/identify_out.json";
  std::filesystem::remove(path);
  const CliRun r = run({"identify", "b03s", "--json", "--output", path});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote " + path), std::string::npos) << r.out;
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '\n');
}

TEST(Cli, SigintDuringIdentifyLeavesNoPartialOutput) {
  // Satellite contract: Ctrl-C during a single-shot identify exits 130 and
  // leaves no partial --output file (the write is atomic temp+rename and
  // only happens after a complete render).  The raiser fires SIGINT every
  // millisecond; raises landing outside run_cli's guard window hit the
  // SIG_IGN installed here and are harmless.  Timing decides whether the
  // run is cancelled or completes — both outcomes must honor the contract.
  using SignalHandler = void (*)(int);
  SignalHandler previous = std::signal(SIGINT, SIG_IGN);
  const std::string path = temp_dir() + "/sigint_identify.json";
  std::filesystem::remove(path);

  std::atomic<bool> done{false};
  std::thread raiser([&] {
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ::raise(SIGINT);
    }
  });
  const CliRun r = run({"identify", "b03s", "--json", "--output", path});
  done.store(true);
  raiser.join();
  std::signal(SIGINT, previous);

  if (r.exit_code == 130) {
    EXPECT_NE(r.err.find("operation cancelled"), std::string::npos) << r.err;
    EXPECT_FALSE(std::filesystem::exists(path))
        << "a cancelled identify must not leave a partial output file";
  } else {
    // The identify outran the first armed SIGINT: the file must be complete.
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::ifstream in(path);
    std::ostringstream content;
    content << in.rdbuf();
    ASSERT_FALSE(content.str().empty());
    EXPECT_EQ(content.str().front(), '{');
    EXPECT_EQ(content.str().back(), '\n');
  }
}

TEST(Cli, ServeDrainsOnSigterm) {
  // SIGTERM against a running serve must come back as a clean drain: exit
  // code 6 and the "drained" trailer on stdout.  SIG_IGN soaks any raise
  // that lands before cmd_serve installs its drain handler; the loop keeps
  // raising until the server thread exits.
  using SignalHandler = void (*)(int);
  SignalHandler previous = std::signal(SIGTERM, SIG_IGN);

  std::ostringstream out, err;
  std::atomic<int> rc{-1};
  std::thread server([&] {
    rc.store(run_cli({"serve", "--listen", "127.0.0.1:0", "--max-inflight",
                      "1"},
                     out, err));
  });
  while (rc.load() == -1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::raise(SIGTERM);
  }
  server.join();
  std::signal(SIGTERM, previous);

  EXPECT_EQ(rc.load(), 6);  // ExitCode::kDrained
  EXPECT_NE(out.str().find("netrev serve listening on 127.0.0.1:"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("netrev serve drained"), std::string::npos)
      << out.str();
  EXPECT_NE(err.str().find("drained cleanly"), std::string::npos) << err.str();
}

TEST(Cli, BatchCompactJournalRequiresResume) {
  const CliRun r = run({"batch", "b03s", "--compact-journal"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--compact-journal needs --resume"), std::string::npos)
      << r.err;
}

TEST(Cli, BatchCompactJournalRewritesTheJournal) {
  const std::string journal = temp_dir() + "/compact_cli.jsonl";
  std::filesystem::remove(journal);
  const CliRun first = run({"batch", "b03s", "b04s", "--resume", journal});
  EXPECT_EQ(first.exit_code, 0) << first.err;

  const CliRun compacted = run({"batch", "b03s", "b04s", "--resume", journal,
                                "--compact-journal"});
  EXPECT_EQ(compacted.exit_code, 0) << compacted.err;
  EXPECT_NE(compacted.out.find("compacted " + journal + ": kept 2 entries"),
            std::string::npos)
      << compacted.out;

  // The compacted journal still resumes everything.
  const CliRun resumed = run({"batch", "b03s", "b04s", "--resume", journal});
  EXPECT_EQ(resumed.exit_code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("2 ok"), std::string::npos) << resumed.out;
}

TEST(Cli, ServeRejectsBadListenAndPositionals) {
  const CliRun bad_listen = run({"serve", "--listen", "nonsense"});
  EXPECT_EQ(bad_listen.exit_code, 2);
  EXPECT_NE(bad_listen.err.find("--listen expects HOST:PORT"),
            std::string::npos)
      << bad_listen.err;

  const CliRun positional = run({"serve", "b03s"});
  EXPECT_EQ(positional.exit_code, 2);
  EXPECT_NE(positional.err.find("takes no positional"), std::string::npos);
}

TEST(Cli, ClientRequiresAnEndpointAndAKnownOp) {
  const CliRun no_endpoint = run({"client", "ping"});
  EXPECT_EQ(no_endpoint.exit_code, 2);
  EXPECT_NE(no_endpoint.err.find("needs --connect"), std::string::npos)
      << no_endpoint.err;

  const CliRun bad_op = run({"client", "frobnicate", "--connect",
                             "127.0.0.1:1"});
  EXPECT_EQ(bad_op.exit_code, 2);
  EXPECT_NE(bad_op.err.find("unknown op"), std::string::npos) << bad_op.err;

  const CliRun no_op = run({"client", "--connect", "127.0.0.1:1"});
  EXPECT_EQ(no_op.exit_code, 2);
  EXPECT_NE(no_op.err.find("expected <op>"), std::string::npos) << no_op.err;
}

TEST(Cli, ClientAgainstADeadEndpointFailsWithAClearError) {
  // Port reserved and closed: connect() must fail fast with a transport
  // error, not hang.
  const CliRun r = run({"client", "ping", "--connect", "127.0.0.1:1"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot connect"), std::string::npos) << r.err;
}

}  // namespace
}  // namespace netrev::cli
