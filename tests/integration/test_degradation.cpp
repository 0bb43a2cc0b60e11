// The graceful-degradation ladder end to end: resource trips produce a
// degraded-but-deterministic answer instead of a failure, disabled policies
// propagate the trip, and an armed-but-unhit deadline changes nothing —
// byte for byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cli/cli.h"
#include "common/resource_guard.h"
#include "common/thread_pool.h"
#include "eval/report.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "netlist/netlist.h"
#include "pipeline/batch.h"
#include "wordrec/degrade.h"
#include "wordrec/identify.h"

namespace netrev {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int exit_code = cli::run_cli(args, out, err);
  return {exit_code, out.str(), err.str()};
}

// A cone-work budget small enough that the full technique (and every rung
// that walks cones) trips on this design.  Budget trips are deterministic —
// they count work units, not wall-clock time.
wordrec::Options tripping_options() {
  wordrec::Options options;
  options.max_cone_work = 100;  // full identification of b08s charges ~161
  return options;
}

TEST(Degradation, BudgetTripFallsDownTheLadderInsteadOfFailing) {
  const netlist::Netlist nl = itc::build_benchmark("b08s").netlist;
  EXPECT_THROW((void)wordrec::identify_words(nl, tripping_options()),
               ResourceLimitError);

  const wordrec::IdentifyResult result = wordrec::identify_words_degradable(
      nl, tripping_options(), exec::DegradePolicy{});
  EXPECT_TRUE(result.degraded());
  EXPECT_NE(result.degrade_level, exec::DegradeLevel::kFull);
  EXPECT_EQ(result.degrade_stage, "full") << "first tripped rung";
  // The trip reason embeds the configured limit, never the racy spent count,
  // so it is byte-stable at any job count.
  EXPECT_EQ(result.degrade_reason,
            "cone traversal work limit exceeded (100 nodes)");
  // The floor rung always answers with the potential-bit groups.
  EXPECT_GT(result.words.words.size(), 0u);
}

TEST(Degradation, DegradedResultIsDeterministicAcrossRunsAndJobCounts) {
  const netlist::Netlist nl = itc::build_benchmark("b08s").netlist;
  const auto render = [&] {
    return eval::identify_result_to_json(
        nl, wordrec::identify_words_degradable(nl, tripping_options(),
                                               exec::DegradePolicy{}));
  };
  ThreadPool::set_global_jobs(1);
  const std::string serial = render();
  EXPECT_EQ(serial, render());
  ThreadPool::set_global_jobs(4);
  const std::string parallel = render();
  ThreadPool::set_global_jobs(0);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"degraded\":{"), std::string::npos);
}

TEST(Degradation, DisabledPolicyPropagatesTheTrip) {
  const netlist::Netlist nl = itc::build_benchmark("b08s").netlist;
  exec::DegradePolicy off;
  off.enabled = false;
  EXPECT_THROW(
      (void)wordrec::identify_words_degradable(nl, tripping_options(), off),
      ResourceLimitError);
}

TEST(Degradation, FloorFullPropagatesTheTrip) {
  const netlist::Netlist nl = itc::build_benchmark("b08s").netlist;
  exec::DegradePolicy full_only;
  full_only.floor = exec::DegradeLevel::kFull;
  EXPECT_THROW((void)wordrec::identify_words_degradable(
                   nl, tripping_options(), full_only),
               ResourceLimitError);
}

TEST(Degradation, ReportDegradationEmitsOneWarningOnlyWhenDegraded) {
  const netlist::Netlist nl = itc::build_benchmark("b03s").netlist;
  diag::Diagnostics diags;
  wordrec::report_degradation(wordrec::identify_words(nl), diags);
  EXPECT_TRUE(diags.empty());

  const netlist::Netlist big = itc::build_benchmark("b08s").netlist;
  const wordrec::IdentifyResult degraded = wordrec::identify_words_degradable(
      big, tripping_options(), exec::DegradePolicy{});
  wordrec::report_degradation(degraded, diags);
  EXPECT_EQ(diags.warning_count(), 1u);
}

TEST(Degradation, DegradedBatchIsByteStableAndWarm) {
  pipeline::BatchOptions options;
  options.config.wordrec.max_cone_work = 100;
  pipeline::ArtifactCache cache;
  options.cache = &cache;
  const pipeline::BatchResult cold =
      pipeline::run_batch({"b03s", "b08s"}, options);
  EXPECT_TRUE(cold.all_ok()) << cold.render_text();
  const pipeline::BatchResult warm =
      pipeline::run_batch({"b03s", "b08s"}, options);
  EXPECT_EQ(cold.to_json(), warm.to_json());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_NE(cold.to_json().find("\"degraded\":{\"level\":"),
            std::string::npos);
}

// --- CLI-level contracts ---------------------------------------------------

TEST(DegradationCli, UnderDeadlineRunEqualsNoDeadlineRunByteForByte) {
  const CliRun plain = run({"identify", "b03s", "--json"});
  const CliRun timed =
      run({"identify", "b03s", "--json", "--timeout", "60000"});
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_EQ(timed.exit_code, 0);
  EXPECT_EQ(plain.out, timed.out);
  // The degradation record is always present so its absence is expressible.
  EXPECT_NE(plain.out.find("\"degraded\":null"), std::string::npos);
}

// The whole-run deadline starts with the Session, before the design loads.
// These tests need it expired by identify's first poll, so they run on
// b18s: generating it takes about 33 ms in a Release build on a 4-core
// host, over 30 times the 1 ms budget, before identify (about 170 ms) even
// starts.  (b12s loads in under 0.5 ms and identifies in about 0.35 ms, so
// a 1 ms budget there could still be unspent at the first poll.)  The
// groups rung never polls, so the outcome is stable despite being
// wall-clock driven.
constexpr const char* kSlowToLoad = "b18s";

TEST(DegradationCli, ExpiredDeadlineDegradesToGroupsWithExitZero) {
  const CliRun degraded =
      run({"identify", kSlowToLoad, "--json", "--timeout", "1"});
  EXPECT_EQ(degraded.exit_code, 0) << degraded.err;
  EXPECT_NE(degraded.out.find("\"degraded\":{\"level\":\"groups\""),
            std::string::npos)
      << degraded.out.substr(0, 200);
}

TEST(DegradationCli, DegradeOffTurnsTheTripIntoExitFive) {
  const CliRun strict =
      run({"identify", kSlowToLoad, "--degrade", "off", "--timeout", "1"});
  EXPECT_EQ(strict.exit_code, 5);
  EXPECT_NE(strict.err.find("deadline exceeded"), std::string::npos);
}

TEST(DegradationCli, BatchDegradedEntriesStillExitZeroUnderKeepGoing) {
  // The acceptance scenario: a pathological stage budget yields a degraded
  // entry — not a failed one — and the batch exits 0.
  const CliRun result =
      run({"batch", kSlowToLoad, "--timeout", "1", "--keep-going", "--json"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(result.out.find("\"degraded\":{\"level\":\"groups\""),
            std::string::npos)
      << result.out.substr(0, 400);
}

TEST(DegradationCli, DegradeFlagRejectsUnknownNames) {
  const CliRun bad = run({"identify", "b03s", "--degrade", "fast"});
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("--degrade expects"), std::string::npos);
}

TEST(DegradationCli, TextModeAnnouncesTheDegradedLevel) {
  const CliRun degraded = run({"identify", kSlowToLoad, "--timeout", "1"});
  EXPECT_EQ(degraded.exit_code, 0);
  EXPECT_NE(degraded.out.find("note: degraded to 'groups'"),
            std::string::npos);
}

}  // namespace
}  // namespace netrev
