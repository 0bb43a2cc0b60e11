// WorkerPool tests against mock workers (/bin/cat, /bin/sh scripts): every
// crash classification, restart-with-backoff, the respawn budget, the
// watchdog, and poison().  Real netrev workers (this test binary re-execed
// in worker mode) are covered by test_isolation.cpp.
#include "pipeline/supervisor.h"

#include <csignal>
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

namespace netrev::pipeline::supervisor {
namespace {

namespace fs = std::filesystem;

PoolOptions shell(const std::string& script, std::size_t workers = 1) {
  PoolOptions options;
  options.exe = "/bin/sh";
  options.args = {"-c", script};
  options.workers = workers;
  options.restart_backoff = std::chrono::milliseconds(1);
  return options;
}

TEST(Supervisor, EchoWorkerRoundTrips) {
  PoolOptions options;
  options.exe = "/bin/cat";
  options.workers = 1;
  WorkerPool pool(options);

  const auto first = pool.run("{\"op\":\"ping\"}");
  EXPECT_FALSE(first.crashed);
  EXPECT_EQ(first.response, "{\"op\":\"ping\"}");

  const auto second = pool.run("second line");
  EXPECT_FALSE(second.crashed);
  EXPECT_EQ(second.response, "second line");

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.spawned, 1u);  // one worker served both round trips
  EXPECT_EQ(stats.alive, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.restarts, 0u);
}

TEST(Supervisor, ConcurrentRoundTripsFanOutAcrossWorkers) {
  // Each round trip holds its worker for ~200ms, so two concurrent callers
  // must spawn two workers to both finish.
  WorkerPool pool(shell("while read line; do sleep 0.2; echo \"$line\"; done",
                        /*workers=*/2));
  std::thread other([&] {
    const auto outcome = pool.run("a");
    EXPECT_FALSE(outcome.crashed);
    EXPECT_EQ(outcome.response, "a");
  });
  const auto outcome = pool.run("b");
  other.join();
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.response, "b");
  EXPECT_EQ(pool.stats().spawned, 2u);
}

TEST(Supervisor, ExitWithoutReplyIsClassifiedAsExitCrash) {
  WorkerPool pool(shell("read line; exit 7"));
  const auto outcome = pool.run("x");
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash.kind, CrashKind::kExit);
  EXPECT_EQ(outcome.crash.exit_status, 7);
  EXPECT_EQ(outcome.crash.describe(), "exit 7 without reply");
}

TEST(Supervisor, SignalDeathIsClassifiedAsSignalCrash) {
  WorkerPool pool(shell("read line; kill -9 $$"));
  const auto outcome = pool.run("x");
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash.kind, CrashKind::kSignal);
  EXPECT_EQ(outcome.crash.signal, SIGKILL);
  EXPECT_EQ(outcome.crash.describe(), "signal 9 (SIGKILL)");
}

TEST(Supervisor, SilentExitZeroIsStillACrash) {
  // A worker that exits cleanly without answering broke the protocol; the
  // caller must see a crash outcome, never a fabricated response.
  WorkerPool pool(shell("exit 0"));
  const auto outcome = pool.run("x");
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash.kind, CrashKind::kExit);
  EXPECT_EQ(outcome.crash.exit_status, 0);
}

TEST(Supervisor, WatchdogKillsHungWorker) {
  PoolOptions options = shell("read line; exec sleep 30");
  options.wall_timeout = std::chrono::milliseconds(200);
  WorkerPool pool(options);
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = pool.run("x");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash.kind, CrashKind::kTimeout);
  EXPECT_NE(outcome.crash.describe().find("watchdog timeout"),
            std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(10));  // nowhere near the sleep
  EXPECT_EQ(pool.stats().alive, 0u);             // the worker was SIGKILLed
}

TEST(Supervisor, CrashedWorkerIsReplacedOnNextDispatch) {
  // The script crashes on its first life (no flag file yet) and behaves on
  // the second, so one restart must fully recover the pool.
  const fs::path flag =
      fs::temp_directory_path() /
      (std::string("netrev_supervisor_flag_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove(flag);
  WorkerPool pool(shell("if [ -f '" + flag.string() +
                        "' ]; then read line; echo \"$line\"; read rest; " +
                        "else : > '" + flag.string() +
                        "'; read line; exit 1; fi"));

  const auto crash = pool.run("first");
  ASSERT_TRUE(crash.crashed);
  const auto recovered = pool.run("second");
  EXPECT_FALSE(recovered.crashed);
  EXPECT_EQ(recovered.response, "second");

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.spawned, 2u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.crashes, 1u);
  fs::remove(flag);
}

TEST(Supervisor, ExhaustedRespawnBudgetYieldsSpawnOutcomes) {
  PoolOptions options = shell("read line; exit 1");
  options.max_restarts = 0;  // initial spawns are free; respawns are not
  WorkerPool pool(options);

  const auto first = pool.run("x");
  ASSERT_TRUE(first.crashed);
  EXPECT_EQ(first.crash.kind, CrashKind::kExit);

  const auto second = pool.run("x");
  ASSERT_TRUE(second.crashed);
  EXPECT_EQ(second.crash.kind, CrashKind::kSpawn);
  EXPECT_EQ(second.crash.describe().rfind("spawn failed", 0), 0u);
}

TEST(Supervisor, PoisonKillsIdleWorkersAndTheNextDispatchRespawns) {
  PoolOptions options;
  options.exe = "/bin/cat";
  options.workers = 1;
  options.restart_backoff = std::chrono::milliseconds(1);
  WorkerPool pool(options);

  EXPECT_FALSE(pool.run("warm").crashed);
  EXPECT_EQ(pool.stats().alive, 1u);
  pool.poison();
  EXPECT_EQ(pool.stats().alive, 0u);

  const auto outcome = pool.run("again");
  EXPECT_FALSE(outcome.crashed);
  EXPECT_EQ(outcome.response, "again");
  EXPECT_EQ(pool.stats().spawned, 2u);
}

TEST(Supervisor, PoisonInterruptsAnInFlightRoundTrip) {
  // The serve drain depends on this: poison() must make a blocked round trip
  // return (as a crash outcome) instead of waiting out the worker.
  WorkerPool pool(shell("read line; exec sleep 30"));
  WorkerPool::Outcome outcome;
  std::thread caller([&] { outcome = pool.run("x"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pool.poison();
  caller.join();
  ASSERT_TRUE(outcome.crashed);
  EXPECT_EQ(outcome.crash.kind, CrashKind::kSignal);
  EXPECT_EQ(outcome.crash.signal, SIGKILL);
}

TEST(Supervisor, DescribeProducesStableJournalStrings) {
  CrashInfo info;
  info.kind = CrashKind::kSignal;
  info.signal = SIGABRT;
  EXPECT_EQ(info.describe(), "signal 6 (SIGABRT)");
  info.signal = 64;  // unnamed realtime signal: number only
  EXPECT_EQ(info.describe(), "signal 64");

  info = CrashInfo{};
  info.kind = CrashKind::kExit;
  info.exit_status = 3;
  EXPECT_EQ(info.describe(), "exit 3 without reply");

  info = CrashInfo{};
  info.kind = CrashKind::kTimeout;
  info.detail = "killed after 500ms";
  EXPECT_EQ(info.describe(), "watchdog timeout (killed after 500ms)");

  info = CrashInfo{};
  info.kind = CrashKind::kSpawn;
  info.detail = "respawn budget exhausted";
  EXPECT_EQ(info.describe(), "spawn failed: respawn budget exhausted");
}

}  // namespace
}  // namespace netrev::pipeline::supervisor
