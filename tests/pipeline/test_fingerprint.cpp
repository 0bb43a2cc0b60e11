#include "pipeline/fingerprint.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/diagnostics.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "netlist/netlist.h"
#include "pipeline/batch.h"
#include "pipeline/journal.h"
#include "wordrec/trace.h"

namespace netrev::pipeline {
namespace {

TEST(Fingerprint, Fnv1a64IsDeterministicAndSensitive) {
  EXPECT_EQ(fnv1a64(""), kFnvOffset);
  EXPECT_EQ(fnv1a64("netrev"), fnv1a64("netrev"));
  EXPECT_NE(fnv1a64("netrev"), fnv1a64("netreV"));
  EXPECT_NE(fnv1a64("a"), fnv1a64(""));
  // Seed chaining: hashing "ab" in one go differs from restarting on "b".
  EXPECT_EQ(fnv1a64("ab"), fnv1a64("b", fnv1a64("a")));
}

TEST(Fingerprint, MixIsOrderDependent) {
  const std::uint64_t a = fnv1a64("left");
  const std::uint64_t b = fnv1a64("right");
  EXPECT_EQ(mix(a, b), mix(a, b));
  EXPECT_NE(mix(a, b), mix(b, a));
}

TEST(Fingerprint, ParseErrorBudgetOnlyCountsWhenPermissive) {
  parser::ParseOptions strict;
  EXPECT_EQ(fingerprint(strict, 16), fingerprint(strict, 64));

  parser::ParseOptions permissive;
  permissive.permissive = true;
  EXPECT_NE(fingerprint(permissive, 16), fingerprint(permissive, 64));
  EXPECT_NE(fingerprint(strict, 64), fingerprint(permissive, 64));
}

TEST(Fingerprint, ParseFilenameAndLimitsMatter) {
  parser::ParseOptions a, b;
  a.filename = "x.bench";
  b.filename = "y.bench";
  EXPECT_NE(fingerprint(a, 64), fingerprint(b, 64));

  parser::ParseOptions c;
  c.filename = "x.bench";
  c.limits.max_gates = 123;
  EXPECT_NE(fingerprint(a, 64), fingerprint(c, 64));
}

TEST(Fingerprint, WordrecKnobsChangeTheFingerprint) {
  const wordrec::Options base;
  const std::uint64_t fp = fingerprint(base);

  wordrec::Options depth = base;
  depth.cone_depth = 3;
  EXPECT_NE(fingerprint(depth), fp);

  wordrec::Options cross = base;
  cross.cross_group_checking = true;
  EXPECT_NE(fingerprint(cross), fp);

  wordrec::Options assign = base;
  assign.max_simultaneous_assignments = 1;
  EXPECT_NE(fingerprint(assign), fp);
}

TEST(Fingerprint, DefaultOptionsMatchRecordedValues) {
  // Batch resume journals store an options fingerprint built from these, so
  // a journal written by an earlier build resumes only while the default
  // option fingerprints keep their bytes.
  EXPECT_EQ(fingerprint(wordrec::Options{}), 0xefcb46280b434004ull);
  EXPECT_EQ(fingerprint(lift::Options{}), 0x7a37385782c039edull);
}

TEST(Fingerprint, DefaultAnalysisOptionsMatchRecordedValue) {
  // Lint artifacts and batch resume journals key on this value.
  EXPECT_EQ(fingerprint(analysis::AnalysisOptions{}), 0xd04cbdc4dcdfd192ull);
}

TEST(Fingerprint, DegradePoliciesMatchRecordedValues) {
  // Identify artifacts and batch resume journals key on the policy, so each
  // --degrade spelling keeps its bytes.
  const auto policy_fp = [](const char* name) {
    const auto policy = exec::parse_degrade_policy(name);
    EXPECT_TRUE(policy.has_value()) << name;
    return policy ? fingerprint(*policy) : 0;
  };
  EXPECT_EQ(policy_fp("off"), 0x22309b453dd78a73ull);
  EXPECT_EQ(policy_fp("full"), 0x143e5bf2301ec451ull);
  EXPECT_EQ(policy_fp("depth"), 0xf54394e9252f7a30ull);
  EXPECT_EQ(policy_fp("baseline"), 0x5233ea0445fd5893ull);
  EXPECT_EQ(policy_fp("groups"), 0x333922fb3b0e0e72ull);
}

TEST(Fingerprint, DefaultBatchJournalKeyMatchesRecordedValue) {
  // A journal written by an earlier build resumes only while the key of a
  // default-options entry keeps its bytes.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "netrev_fingerprint_journal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ArtifactCache cache;  // leaves the process-global cache to other tests
  BatchOptions options;
  options.cache = &cache;
  options.resume_path = (dir / "journal.jsonl").string();
  ASSERT_TRUE(run_batch({"b03s"}, options).all_ok());
  const std::vector<JournalRecord> records = read_journal(options.resume_path);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "87811c5e0bf97676");
}

// The journal key `batch b03s --resume J` writes under every flag that
// reaches the key: --permissive --cross-group --use-dataflow --depth 3
// --max-assign 1 --degrade depth --max-errors 5, plus --base when `base`.
std::string flagged_batch_journal_key(bool base) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("netrev_fingerprint_flagged_journal" + std::to_string(base));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ArtifactCache cache;
  BatchOptions options;
  options.cache = &cache;
  options.resume_path = (dir / "journal.jsonl").string();
  options.config.use_baseline = base;
  options.config.parse.permissive = true;
  options.config.wordrec.cross_group_checking = true;
  options.config.wordrec.use_dataflow = true;
  options.config.wordrec.cone_depth = 3;
  options.config.wordrec.max_simultaneous_assignments = 1;
  options.config.exec.degrade = *exec::parse_degrade_policy("depth");
  options.config.max_errors = 5;
  const bool ok = run_batch({"b03s"}, options).all_ok();
  const std::vector<JournalRecord> records = read_journal(options.resume_path);
  std::filesystem::remove_all(dir);
  if (!ok || records.size() != 1) return "run failed";
  return records[0].key;
}

TEST(Fingerprint, FlaggedBatchJournalKeysMatchRecordedValues) {
  // Recorded by `netrev batch b03s --resume J` with the same flags.
  EXPECT_EQ(flagged_batch_journal_key(/*base=*/true), "0436475417e3926e");
  EXPECT_EQ(flagged_batch_journal_key(/*base=*/false), "7cea9f5bbc0f5ef8");
}

TEST(Fingerprint, WordrecObservationPointersAreExcluded) {
  // Trace sinks and shared work budgets observe the run without changing
  // its result, so they must not fragment the cache key space.
  wordrec::Options traced;
  wordrec::IdentifyTrace trace;
  traced.trace = &trace;
  EXPECT_EQ(fingerprint(traced), fingerprint(wordrec::Options{}));
}

TEST(Fingerprint, AnalysisRuleSelectionChangesTheFingerprint) {
  analysis::AnalysisOptions all, some;
  some.enabled_rules = {"comb-cycle"};
  EXPECT_NE(fingerprint(all), fingerprint(some));

  analysis::AnalysisOptions other;
  other.enabled_rules = {"multi-driven"};
  EXPECT_NE(fingerprint(some), fingerprint(other));
}

TEST(Fingerprint, DiagnosticsEntriesChangeTheFingerprint) {
  diag::Diagnostics empty;
  diag::Diagnostics one;
  one.error("dropped line", {"x.bench", 3, 1});
  EXPECT_NE(fingerprint(empty), fingerprint(one));

  diag::Diagnostics same;
  same.error("dropped line", {"x.bench", 3, 1});
  EXPECT_EQ(fingerprint(one), fingerprint(same));

  diag::Diagnostics moved;
  moved.error("dropped line", {"x.bench", 4, 1});
  EXPECT_NE(fingerprint(one), fingerprint(moved));
}

TEST(Fingerprint, NetlistFingerprintIsStructuralAndDeterministic) {
  const netlist::Netlist a = itc::build_benchmark("b03s").netlist;
  const netlist::Netlist b = itc::build_benchmark("b03s").netlist;
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(b));

  const netlist::Netlist c = itc::build_benchmark("b04s").netlist;
  EXPECT_NE(netlist_fingerprint(a), netlist_fingerprint(c));
}

TEST(Fingerprint, NetlistFingerprintSeesGateTypeChanges) {
  auto build = [](netlist::GateType type) {
    netlist::Netlist nl;
    nl.set_name("fp");
    const netlist::NetId in = nl.add_net("i");
    const netlist::NetId out = nl.add_net("o");
    nl.mark_primary_input(in);
    nl.add_gate(type, out, {in});
    nl.mark_primary_output(out);
    return nl;
  };
  EXPECT_NE(netlist_fingerprint(build(netlist::GateType::kNot)),
            netlist_fingerprint(build(netlist::GateType::kBuf)));
}

}  // namespace
}  // namespace netrev::pipeline
