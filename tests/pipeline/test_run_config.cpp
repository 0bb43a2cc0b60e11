#include "pipeline/run_config.h"

#include <gtest/gtest.h>

#include "pipeline/fingerprint.h"

namespace netrev {
namespace {

TEST(RunConfig, FingerprintsDelegateToTheOptionHashes) {
  const RunConfig config;
  EXPECT_EQ(config.parse_fingerprint(),
            pipeline::fingerprint(config.parse, config.max_errors));
  EXPECT_EQ(config.wordrec_fingerprint(),
            pipeline::fingerprint(config.wordrec));
  EXPECT_EQ(config.analysis_fingerprint(),
            pipeline::fingerprint(config.analysis));
}

TEST(RunConfig, FieldChangesShowUpOnlyInTheMatchingFingerprint) {
  const RunConfig a;
  RunConfig b;

  b.wordrec.cone_depth = 2;
  EXPECT_NE(a.wordrec_fingerprint(), b.wordrec_fingerprint());
  EXPECT_EQ(a.analysis_fingerprint(), b.analysis_fingerprint());
  EXPECT_EQ(a.parse_fingerprint(), b.parse_fingerprint());

  b.analysis.enabled_rules = {"comb-cycle"};
  EXPECT_NE(a.analysis_fingerprint(), b.analysis_fingerprint());

  b.parse.permissive = true;
  EXPECT_NE(a.parse_fingerprint(), b.parse_fingerprint());
}

TEST(RunConfig, TechniqueSelectorDoesNotAffectStageFingerprints) {
  // use_baseline picks which cached stage to consult ("identify" vs
  // "identify_base"); it must not change the option fingerprints themselves.
  const RunConfig a;
  RunConfig b;
  b.use_baseline = true;
  EXPECT_EQ(a.wordrec_fingerprint(), b.wordrec_fingerprint());
  EXPECT_EQ(a.parse_fingerprint(), b.parse_fingerprint());
  EXPECT_EQ(a.analysis_fingerprint(), b.analysis_fingerprint());
}

TEST(RunConfig, DegradePolicyIsTheOnlyExecFingerprintInput) {
  // The degrade policy changes what identification may produce, so it keys
  // the cache; timeouts and cancellation are observation-only (they decide
  // whether a rung finishes, never what a finished rung computed) and must
  // not fragment cache slots or journal keys.
  const RunConfig a;
  RunConfig b;
  b.exec.timeout = std::chrono::milliseconds(5000);
  b.exec.stage_timeout = std::chrono::milliseconds(100);
  b.exec.cancel.request_cancel();
  EXPECT_EQ(a.exec_fingerprint(), b.exec_fingerprint());

  b.exec.degrade.floor = exec::DegradeLevel::kBaseline;
  EXPECT_NE(a.exec_fingerprint(), b.exec_fingerprint());
  b.exec.degrade = exec::DegradePolicy{};
  b.exec.degrade.enabled = false;
  EXPECT_NE(a.exec_fingerprint(), b.exec_fingerprint());
}

TEST(RunConfig, CacheCapacityNeverEntersAnyFingerprint) {
  // --cache-entries tunes retention, not results; a capacity change must
  // never invalidate cached artifacts or journal entries.
  const RunConfig a;
  RunConfig b;
  b.cache_entries = 0;
  EXPECT_EQ(a.exec_fingerprint(), b.exec_fingerprint());
  EXPECT_EQ(a.wordrec_fingerprint(), b.wordrec_fingerprint());
  EXPECT_EQ(a.parse_fingerprint(), b.parse_fingerprint());
  EXPECT_EQ(a.analysis_fingerprint(), b.analysis_fingerprint());
}

}  // namespace
}  // namespace netrev
