// End-to-end process-isolation tests with REAL netrev workers: this test
// binary re-execed in worker mode (see tests/support/worker_main.cpp), so
// the full fork/exec/pipe/NDJSON path is the production one.
//
// The chaos tests setenv(NETREV_CHAOS) and run ISOLATED batches only while
// it is set: the spec is inherited by the worker children, which crash at
// the instrumented stage; the parent never reaches a chaos checkpoint on the
// isolated path.  In-process reference runs happen strictly before setenv.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/degrade.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/batch.h"
#include "pipeline/client.h"
#include "pipeline/journal.h"
#include "pipeline/serve.h"
#include "pipeline/supervisor.h"

namespace netrev::pipeline {
namespace {

namespace fs = std::filesystem;

// setenv/unsetenv bracketing that survives early test exits.
class ScopedChaos {
 public:
  explicit ScopedChaos(const std::string& spec) {
    ::setenv("NETREV_CHAOS", spec.c_str(), 1);
  }
  ~ScopedChaos() { ::unsetenv("NETREV_CHAOS"); }
};

supervisor::PoolOptions worker_pool_options(std::size_t workers = 2) {
  supervisor::PoolOptions options;  // exe defaults to /proc/self/exe
  options.args = {"worker"};
  options.workers = workers;
  options.restart_backoff = std::chrono::milliseconds(1);
  return options;
}

class IsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("NETREV_CHAOS");
    dir_ = fs::temp_directory_path() /
           (std::string("netrev_isolation_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("NETREV_CHAOS");
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(IsolationTest, IsolatedBatchIsByteIdenticalToInProcess) {
  const std::vector<std::string> specs = {"b03s", "b04s"};
  BatchOptions plain;
  const std::string reference = run_batch(specs, plain).to_json();

  supervisor::WorkerPool pool(worker_pool_options());
  BatchOptions isolated;
  isolated.pool = &pool;
  const BatchResult result = run_batch(specs, isolated);

  EXPECT_EQ(result.to_json(), reference);
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(pool.stats().crashes, 0u);
}

// The worker is spawned bare ({"worker"}, default settings): every setting
// must reach it in the entry requests.
TEST_F(IsolationTest, IsolatedBatchMatchesInProcessUnderNonDefaultSettings) {
  const std::vector<std::string> specs = {"b12s", "b14s"};
  std::vector<std::pair<std::string, RunConfig>> settings(3);
  settings[0].first = "depth 3, max-assign 1";
  settings[0].second.wordrec.cone_depth = 3;
  settings[0].second.wordrec.max_simultaneous_assignments = 1;
  settings[1].first = "base";
  settings[1].second.use_baseline = true;
  settings[2].first = "cross-group, use-dataflow, permissive, degrade depth";
  settings[2].second.wordrec.cross_group_checking = true;
  settings[2].second.wordrec.use_dataflow = true;
  settings[2].second.parse.permissive = true;
  settings[2].second.exec.degrade = *exec::parse_degrade_policy("depth");

  supervisor::WorkerPool pool(worker_pool_options());
  for (const auto& [name, config] : settings) {
    BatchOptions plain;
    plain.config = config;
    const std::string reference = run_batch(specs, plain).to_json();

    BatchOptions isolated = plain;
    isolated.pool = &pool;
    const BatchResult result = run_batch(specs, isolated);
    EXPECT_TRUE(result.all_ok()) << name;
    EXPECT_EQ(result.to_json(), reference) << name;
  }
  EXPECT_EQ(pool.stats().crashes, 0u);
}

// A setting outside the request record would reach a bare worker as its
// default, so an isolated batch refuses it before any entry runs.
TEST_F(IsolationTest, IsolatedBatchRefusesLiftSettingsItCannotCarry) {
  supervisor::WorkerPool pool(worker_pool_options());
  BatchOptions isolated;
  isolated.config.lift.verify_vectors = 100;
  isolated.pool = &pool;
  try {
    run_batch({"b12s"}, isolated);
    FAIL() << "an isolated batch ran with lift.verify_vectors = 100";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("lift settings"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(pool.stats().spawned, 0u);
}

TEST_F(IsolationTest, IsolatedBatchRefusesLintRulesItCannotCarry) {
  supervisor::WorkerPool pool(worker_pool_options());
  BatchOptions isolated;
  isolated.config.analysis.enabled_rules = {"comb-cycle"};
  isolated.pool = &pool;
  try {
    run_batch({"b12s"}, isolated);
    FAIL() << "an isolated batch ran with enabled_rules = {comb-cycle}";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("analysis settings"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(pool.stats().spawned, 0u);
}

TEST_F(IsolationTest, ChaosCrashIsQuarantinedAndSiblingsAreUntouched) {
  const std::vector<std::string> specs = {"b03s", "b04s", "b08s"};
  // In-process fault-free reference FIRST: once the env var is set, an
  // in-process run of b04s would abort this test process.
  BatchOptions plain;
  const BatchResult reference = run_batch(specs, plain);
  ASSERT_TRUE(reference.all_ok());

  ScopedChaos chaos("abort@identify:b04s");
  supervisor::WorkerPool pool(worker_pool_options());
  BatchOptions isolated;
  isolated.pool = &pool;
  const BatchResult result = run_batch(specs, isolated);

  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.crashed, 1u);
  EXPECT_EQ(result.ok, 2u);
  EXPECT_FALSE(result.all_ok());

  const BatchEntry& crashed = result.entries[1];
  EXPECT_EQ(crashed.spec, "b04s");
  EXPECT_EQ(crashed.status, EntryStatus::kCrashed);
  EXPECT_EQ(crashed.crash, "signal 6 (SIGABRT)");
  EXPECT_EQ(crashed.crash_signal, 6u);

  // Quarantine means contain and continue: the crash must not dent the
  // neighbors even without --keep-going (crashes are not failures).
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(result.entries[i].status, EntryStatus::kOk) << i;
    EXPECT_EQ(result.entries[i].identify_json,
              reference.entries[i].identify_json)
        << i;
    EXPECT_EQ(result.entries[i].lift_json, reference.entries[i].lift_json)
        << i;
  }
}

TEST_F(IsolationTest, CrashRetriesGiveTheEntryFreshWorkers) {
  ScopedChaos chaos("abort@identify:b03s");  // deterministic: every attempt
  supervisor::WorkerPool pool(worker_pool_options(1));
  BatchOptions isolated;
  isolated.pool = &pool;
  isolated.crash_retries = 3;
  const BatchResult result = run_batch({"b03s"}, isolated);

  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].status, EntryStatus::kCrashed);
  // All three attempts crashed a worker before quarantine.
  EXPECT_EQ(pool.stats().crashes, 3u);
}

TEST_F(IsolationTest, ResumeRestoresQuarantinedEntriesWithoutRerunningThem) {
  const std::string journal = (dir_ / "journal.jsonl").string();
  {
    ScopedChaos chaos("abort@identify:b04s");
    supervisor::WorkerPool pool(worker_pool_options());
    BatchOptions isolated;
    isolated.pool = &pool;
    isolated.resume_path = journal;
    const BatchResult result = run_batch({"b03s", "b04s"}, isolated);
    EXPECT_EQ(result.crashed, 1u);
  }

  // The journal must carry a v2 "crashed" record for b04s.
  std::ifstream in(journal);
  std::string line;
  bool saw_crashed = false;
  while (std::getline(in, line)) {
    JournalRecord record;
    ASSERT_TRUE(parse_journal_line(line, record)) << line;
    if (record.entry.status == EntryStatus::kCrashed) {
      saw_crashed = true;
      EXPECT_EQ(record.entry.spec, "b04s");
      EXPECT_EQ(record.entry.crash, "signal 6 (SIGABRT)");
    }
  }
  EXPECT_TRUE(saw_crashed);

  // Chaos is now OFF; a resumed IN-PROCESS run must restore the quarantined
  // entry from the journal (status preserved) instead of recomputing it.
  BatchOptions resumed;
  resumed.resume_path = journal;
  const BatchResult result = run_batch({"b03s", "b04s"}, resumed);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.resumed, 2u);
  EXPECT_EQ(result.entries[0].status, EntryStatus::kOk);
  EXPECT_EQ(result.entries[1].status, EntryStatus::kCrashed);
  EXPECT_EQ(result.entries[1].crash, "signal 6 (SIGABRT)");
}

// --- serve --isolate ---------------------------------------------------------

class RunningServer {
 public:
  explicit RunningServer(serve::ServeOptions options) {
    options.executor.cache = &cache_;
    server_ = std::make_unique<serve::Server>(std::move(options), &log_);
    server_->start();
    thread_ = std::thread([this] { (void)server_->run(); });
  }
  ~RunningServer() {
    server_->request_drain();
    if (thread_.joinable()) thread_.join();
  }

  client::Endpoint endpoint() const {
    client::Endpoint endpoint;
    endpoint.host = "127.0.0.1";
    endpoint.port = server_->port();
    return endpoint;
  }

 private:
  ArtifactCache cache_;
  std::ostringstream log_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

protocol::Request make(protocol::Op op, const std::string& id,
                       const std::string& design = "") {
  protocol::Request request;
  request.id = id;
  request.op = op;
  request.design = design;
  return request;
}

TEST_F(IsolationTest, ServeSurvivesAWorkerCrashAndKeepsAnswering) {
  serve::ServeOptions options;
  options.pool = worker_pool_options(1);
  RunningServer server(options);
  client::Connection connection(server.endpoint());

  protocol::Response poisoned;
  {
    // Workers spawn lazily at dispatch and inherit the env as of that
    // moment, so setting chaos around this one request poisons exactly it.
    ScopedChaos chaos("abort@identify:b04s");
    poisoned =
        connection.round_trip(make(protocol::Op::kIdentify, "r1", "b04s"));
  }
  EXPECT_EQ(poisoned.status, protocol::Status::kWorkerCrashed);
  EXPECT_NE(poisoned.error.find("SIGABRT"), std::string::npos);

  // The daemon is alive and the respawned (chaos-free) worker answers.
  const protocol::Response ok =
      connection.round_trip(make(protocol::Op::kIdentify, "r2", "b03s"));
  EXPECT_EQ(ok.status, protocol::Status::kOk);
  EXPECT_NE(ok.result.find("multibit_words"), std::string::npos);

  // health reflects the crash: one restart, one quarantined request.
  const protocol::Response health =
      connection.round_trip(make(protocol::Op::kHealth, "h1"));
  ASSERT_EQ(health.status, protocol::Status::kOk);
  EXPECT_NE(health.result.find("\"isolate\":true"), std::string::npos);
  EXPECT_NE(health.result.find("\"restarted\":1"), std::string::npos);
  EXPECT_NE(health.result.find("\"quarantined\":1"), std::string::npos);
}

TEST_F(IsolationTest, IsolatedServeMatchesInProcessServeByteForByte) {
  std::string reference;
  {
    RunningServer server(serve::ServeOptions{});
    client::Connection connection(server.endpoint());
    reference =
        connection.round_trip(make(protocol::Op::kIdentify, "r", "b03s"))
            .result;
  }
  serve::ServeOptions options;
  options.pool = worker_pool_options(1);
  RunningServer server(options);
  client::Connection connection(server.endpoint());
  const protocol::Response response =
      connection.round_trip(make(protocol::Op::kIdentify, "r", "b03s"));
  EXPECT_EQ(response.status, protocol::Status::kOk);
  EXPECT_EQ(response.result, reference);
}

// The daemon's own settings (its executor base) must reach its bare
// workers with each forwarded request.
TEST_F(IsolationTest, IsolatedServeAppliesTheDaemonSettings) {
  serve::ServeOptions options;
  options.executor.base.wordrec.cone_depth = 3;
  options.executor.base.wordrec.max_simultaneous_assignments = 1;
  options.executor.base.wordrec.cross_group_checking = true;

  const std::vector<protocol::Op> ops = {
      protocol::Op::kIdentify, protocol::Op::kLift, protocol::Op::kEvaluate};
  const auto answers = [&](const serve::ServeOptions& serve_options) {
    RunningServer server(serve_options);
    client::Connection connection(server.endpoint());
    std::vector<std::string> results;
    for (const protocol::Op op : ops) {
      const protocol::Response response =
          connection.round_trip(make(op, "r", "b12s"));
      EXPECT_EQ(response.status, protocol::Status::kOk)
          << protocol::op_name(op) << ": " << response.error;
      results.push_back(response.result);
    }
    return results;
  };
  const std::vector<std::string> reference = answers(options);
  options.pool = worker_pool_options(1);
  const std::vector<std::string> isolated = answers(options);
  ASSERT_EQ(isolated.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i)
    EXPECT_EQ(isolated[i], reference[i]) << protocol::op_name(ops[i]);

  // The settings change the answer, so the comparison above can fail.
  serve::ServeOptions defaults;
  EXPECT_NE(answers(defaults).front(), reference.front());
}

TEST_F(IsolationTest, IsolatingServerRefusesABaseItCannotForward) {
  serve::ServeOptions options;
  options.executor.base.wordrec.distinguish_leaf_kinds = false;
  options.pool = worker_pool_options(1);
  serve::Server server(options);
  try {
    server.start();
    FAIL() << "an isolating server started with distinguish_leaf_kinds off";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("wordrec settings"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(IsolationTest, PingAndHealthStayInProcessWhenIsolating) {
  serve::ServeOptions options;
  options.pool = worker_pool_options(1);
  RunningServer server(options);
  client::Connection connection(server.endpoint());

  // No analysis request has run: the pool must still be empty because ping
  // and health never take a worker round trip.
  EXPECT_EQ(connection.round_trip(make(protocol::Op::kPing, "p")).status,
            protocol::Status::kOk);
  const protocol::Response health =
      connection.round_trip(make(protocol::Op::kHealth, "h"));
  ASSERT_EQ(health.status, protocol::Status::kOk);
  EXPECT_NE(health.result.find("\"alive\":0"), std::string::npos);
}

}  // namespace
}  // namespace netrev::pipeline
