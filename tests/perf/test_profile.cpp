#include "perf/profile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/thread_pool.h"

namespace netrev::perf {
namespace {

void spin_for(std::chrono::microseconds budget) {
  const auto until = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Profiler, DisabledProfilerRecordsNothing) {
  Profiler profiler;
  profiler.count(profiler.counter("cones_hashed"), 5);
  {
    Stage stage("identify", profiler);
    ScopedWork work(profiler.counter("stage.hashing_ns"), profiler);
    spin_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(profiler.counter_value("cones_hashed"), 0u);
  EXPECT_EQ(profiler.counter_value("stage.hashing_ns"), 0u);
  EXPECT_EQ(profiler.top_level_stage_nanos(), 0u);
}

TEST(Profiler, CountersAccumulateWhileEnabled) {
  Profiler profiler;
  profiler.enable();
  profiler.count(profiler.counter("pairs_compared"), 3);
  profiler.count(profiler.counter("pairs_compared"), 4);
  EXPECT_EQ(profiler.counter_value("pairs_compared"), 7u);
  profiler.disable();
  profiler.count(profiler.counter("pairs_compared"), 100);
  EXPECT_EQ(profiler.counter_value("pairs_compared"), 7u);
}

TEST(Profiler, CounterAddressIsStableAcrossReset) {
  Profiler profiler;
  Profiler::Counter& counter = profiler.counter("subtrees_diffed");
  counter.fetch_add(9);
  profiler.enable();  // resets values
  EXPECT_EQ(profiler.counter_value("subtrees_diffed"), 0u);
  // Same counter object still feeds the same name (call sites cache it).
  counter.fetch_add(2);
  EXPECT_EQ(profiler.counter_value("subtrees_diffed"), 2u);
  EXPECT_EQ(&profiler.counter("subtrees_diffed"), &counter);
}

TEST(Profiler, StagesNestIntoATree) {
  Profiler profiler;
  profiler.enable();
  {
    Stage outer("identify", profiler);
    spin_for(std::chrono::microseconds(100));
    {
      Stage inner("grouping", profiler);
      spin_for(std::chrono::microseconds(100));
    }
    {
      Stage inner("merge", profiler);
      spin_for(std::chrono::microseconds(100));
    }
  }
  const std::string json = profiler.render_json();
  // "grouping" and "merge" are children of "identify", not top-level stages.
  const auto identify_pos = json.find("\"name\":\"identify\"");
  const auto grouping_pos = json.find("\"name\":\"grouping\"");
  const auto merge_pos = json.find("\"name\":\"merge\"");
  ASSERT_NE(identify_pos, std::string::npos);
  ASSERT_NE(grouping_pos, std::string::npos);
  ASSERT_NE(merge_pos, std::string::npos);
  EXPECT_LT(identify_pos, grouping_pos);
  EXPECT_LT(grouping_pos, merge_pos);
  EXPECT_EQ(json.find("\"name\":\"identify\"", identify_pos + 1),
            std::string::npos)
      << "re-entering a stage must reuse its node, not clone it";
}

TEST(Profiler, RepeatedStagesAccumulateCalls) {
  Profiler profiler;
  profiler.enable();
  for (int i = 0; i < 3; ++i) {
    Stage stage("load", profiler);
    spin_for(std::chrono::microseconds(50));
  }
  const std::string json = profiler.render_json();
  EXPECT_NE(json.find("\"name\":\"load\",\"ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"calls\":3"), std::string::npos);
}

// The acceptance-criteria invariant: per-stage wall times must account for
// the run — top-level stages sum to within 10% of the total when the whole
// run is staged.
TEST(Profiler, TopLevelStagesCoverTotalWithinTenPercent) {
  Profiler profiler;
  profiler.enable();
  {
    Stage a("load", profiler);
    spin_for(std::chrono::milliseconds(5));
  }
  {
    Stage b("identify", profiler);
    {
      Stage c("grouping", profiler);
      spin_for(std::chrono::milliseconds(5));
    }
    spin_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t total = profiler.total_nanos();
  const std::uint64_t staged = profiler.top_level_stage_nanos();
  ASSERT_GT(total, 0u);
  EXPECT_LE(staged, total + total / 10);
  EXPECT_GE(staged, total - total / 10);
}

TEST(Profiler, ScopedWorkAccumulatesCpuTimeAcrossWorkers) {
  Profiler profiler;
  profiler.enable();
  ThreadPool pool(4);
  Profiler::Counter& funcheck_ns = profiler.counter("stage.funcheck_ns");
  pool.parallel_for(0, 8, [&](std::size_t) {
    ScopedWork work(funcheck_ns, profiler);
    spin_for(std::chrono::microseconds(500));
  });
  // 8 bodies x 500us of CPU time each, regardless of wall-clock overlap.
  EXPECT_GE(profiler.counter_value("stage.funcheck_ns"), 8u * 400'000u);
}

TEST(Profiler, RenderTextShowsStagesAndCounters) {
  Profiler profiler;
  profiler.enable();
  {
    Stage stage("identify", profiler);
    spin_for(std::chrono::microseconds(100));
  }
  profiler.count(profiler.counter("cones_hashed"), 42);
  profiler.count(profiler.counter("stage.hashing_ns"), 1'500'000);
  const std::string text = profiler.render_text();
  EXPECT_NE(text.find("- identify:"), std::string::npos);
  EXPECT_NE(text.find("cones_hashed: 42"), std::string::npos);
  EXPECT_NE(text.find("stage.hashing_ns: 1.500 ms"), std::string::npos);
}

TEST(Profiler, RenderJsonOmitsZeroCounters) {
  Profiler profiler;
  profiler.enable();
  profiler.counter("never_touched");
  profiler.count(profiler.counter("sim_vectors_run"), 64);
  const std::string json = profiler.render_json();
  EXPECT_EQ(json.find("never_touched"), std::string::npos);
  EXPECT_NE(json.find("\"sim_vectors_run\":64"), std::string::npos);
}

}  // namespace
}  // namespace netrev::perf
