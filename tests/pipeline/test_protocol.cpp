#include "pipeline/protocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/diagnostics.h"
#include "exec/cancel.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "parser/bench_parser.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/session.h"

namespace netrev::pipeline::protocol {
namespace {

using std::chrono::milliseconds;

ExecutorConfig with_cache(ArtifactCache& cache) {
  ExecutorConfig config;
  config.cache = &cache;
  return config;
}

// --- parsing ----------------------------------------------------------------

TEST(Protocol, ParsesMinimalRequest) {
  const ParsedRequest parsed = parse_request("{\"op\":\"ping\"}");
  ASSERT_TRUE(parsed.request.has_value());
  EXPECT_EQ(parsed.request->op, Op::kPing);
  EXPECT_TRUE(parsed.request->id.empty());
}

TEST(Protocol, ParsesFullIdentifyRequest) {
  const ParsedRequest parsed = parse_request(
      "{\"id\":\"r1\",\"op\":\"identify\",\"design\":\"b03s\","
      "\"options\":{\"base\":false,\"depth\":4,\"max_assign\":2,"
      "\"cross_group\":true,\"permissive\":false,\"timeout_ms\":1000,"
      "\"degrade\":\"groups\",\"max_errors\":8}}");
  ASSERT_TRUE(parsed.request.has_value());
  const Request& request = *parsed.request;
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.op, Op::kIdentify);
  EXPECT_EQ(request.design, "b03s");
  ASSERT_TRUE(request.options.base.has_value());
  EXPECT_FALSE(*request.options.base);
  EXPECT_EQ(request.options.depth, 4u);
  EXPECT_EQ(request.options.max_assign, 2u);
  EXPECT_EQ(request.options.cross_group, true);
  EXPECT_EQ(request.options.timeout_ms, 1000u);
  EXPECT_EQ(request.options.max_errors, 8u);
  ASSERT_TRUE(request.options.degrade.has_value());
  EXPECT_TRUE(request.options.degrade->enabled);
}

TEST(Protocol, ParsesBatchDesignList) {
  const ParsedRequest parsed = parse_request(
      "{\"op\":\"batch\",\"designs\":[\"b01s\",\"b02s\"]}");
  ASSERT_TRUE(parsed.request.has_value());
  ASSERT_EQ(parsed.request->designs.size(), 2u);
  EXPECT_EQ(parsed.request->designs[0], "b01s");
  EXPECT_EQ(parsed.request->designs[1], "b02s");
}

TEST(Protocol, RejectsMissingOp) {
  const ParsedRequest parsed = parse_request("{\"design\":\"b03s\"}");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_NE(parsed.error.find("missing \"op\""), std::string::npos);
}

TEST(Protocol, RejectsUnknownOp) {
  const ParsedRequest parsed = parse_request("{\"op\":\"frobnicate\"}");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_NE(parsed.error.find("unknown op"), std::string::npos);
  // The error enumerates every op the server speaks.
  for (const char* op :
       {"ping", "stats", "load", "lint", "identify", "evaluate", "batch",
        "lift"})
    EXPECT_NE(parsed.error.find(op), std::string::npos) << op;
}

TEST(Protocol, RejectsMistypedFields) {
  EXPECT_FALSE(parse_request("{\"op\":1}").request.has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"ping\",\"id\":7}").request.has_value());
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"designs\":\"b01s\"}")
          .request.has_value());
  EXPECT_FALSE(
      parse_request("{\"op\":\"batch\",\"designs\":[1,2]}")
          .request.has_value());
  EXPECT_FALSE(
      parse_request("{\"op\":\"identify\",\"options\":[]}")
          .request.has_value());
}

TEST(Protocol, RejectsUnknownOptionKeysInsteadOfIgnoringTypos) {
  const ParsedRequest parsed = parse_request(
      "{\"op\":\"identify\",\"design\":\"b03s\","
      "\"options\":{\"deptth\":4}}");
  EXPECT_FALSE(parsed.request.has_value());
  EXPECT_NE(parsed.error.find("unknown option \"deptth\""), std::string::npos);
}

TEST(Protocol, RejectsMistypedOptionValues) {
  EXPECT_FALSE(parse_request("{\"op\":\"identify\",\"options\":"
                             "{\"depth\":\"four\"}}")
                   .request.has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"identify\",\"options\":"
                             "{\"depth\":-4}}")
                   .request.has_value());
  const ParsedRequest zero_depth = parse_request(
      "{\"op\":\"identify\",\"design\":\"b03s\",\"options\":{\"depth\":0}}");
  EXPECT_FALSE(zero_depth.request.has_value());
  EXPECT_EQ(zero_depth.error, "\"depth\" must be a positive integer");
  EXPECT_FALSE(parse_request("{\"op\":\"identify\",\"options\":"
                             "{\"base\":\"yes\"}}")
                   .request.has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"identify\",\"options\":"
                             "{\"degrade\":\"sideways\"}}")
                   .request.has_value());
}

TEST(Protocol, RejectsMalformedJson) {
  EXPECT_FALSE(parse_request("").request.has_value());
  EXPECT_FALSE(parse_request("not json").request.has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"ping\"").request.has_value());
  EXPECT_FALSE(parse_request("{\"op\":\"ping\"} trailing").request.has_value());
  EXPECT_FALSE(parse_request("[\"op\"]").request.has_value());
}

// --- round trips ------------------------------------------------------------

TEST(Protocol, RequestRoundTripsThroughRenderAndParse) {
  Request request;
  request.id = "r42";
  request.op = Op::kIdentify;
  request.design = "b03s";
  request.options.base = false;
  request.options.cross_group = true;
  request.options.depth = 3;
  request.options.max_assign = 1;
  request.options.max_errors = 16;
  request.options.timeout_ms = 250;
  request.options.degrade =
      exec::DegradePolicy{true, exec::DegradeLevel::kGroupsOnly};

  const ParsedRequest parsed = parse_request(render_request(request));
  ASSERT_TRUE(parsed.request.has_value()) << parsed.error;
  const Request& back = *parsed.request;
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.op, request.op);
  EXPECT_EQ(back.design, request.design);
  EXPECT_EQ(back.options.base, request.options.base);
  EXPECT_EQ(back.options.cross_group, request.options.cross_group);
  EXPECT_EQ(back.options.depth, request.options.depth);
  EXPECT_EQ(back.options.max_assign, request.options.max_assign);
  EXPECT_EQ(back.options.max_errors, request.options.max_errors);
  EXPECT_EQ(back.options.timeout_ms, request.options.timeout_ms);
  ASSERT_TRUE(back.options.degrade.has_value());
  EXPECT_TRUE(back.options.degrade->enabled);
  EXPECT_EQ(back.options.degrade->floor, exec::DegradeLevel::kGroupsOnly);
}

TEST(Protocol, ResponseResultBytesSurviveTheWireExactly) {
  // parse_response recovers "result" via its source span, so the client can
  // re-print the server's bytes without re-rendering (fractional metrics and
  // key order included).
  Response response;
  response.id = "r1";
  response.status = Status::kOk;
  response.result = "{\"metrics\":{\"recall\":0.875,\"b\":[1,2.5e-3,null]}}";
  const std::string line = render_response(response);
  const ParsedResponse parsed = parse_response(line);
  ASSERT_TRUE(parsed.response.has_value()) << parsed.error;
  EXPECT_EQ(parsed.response->result, response.result);
  EXPECT_EQ(parsed.response->id, "r1");
  EXPECT_EQ(parsed.response->status, Status::kOk);
}

TEST(Protocol, ErrorResponseRoundTrips) {
  Response response;
  response.id = "r9";
  response.status = Status::kOverloaded;
  response.error = "admission queue full (max-queue=2); retry with backoff";
  const ParsedResponse parsed = parse_response(render_response(response));
  ASSERT_TRUE(parsed.response.has_value()) << parsed.error;
  EXPECT_EQ(parsed.response->status, Status::kOverloaded);
  EXPECT_EQ(parsed.response->error, response.error);
  EXPECT_TRUE(parsed.response->result.empty());
}

TEST(Protocol, ParseResponseRejectsUnknownStatus) {
  const ParsedResponse parsed =
      parse_response("{\"id\":\"r1\",\"status\":\"sideways\"}");
  EXPECT_FALSE(parsed.response.has_value());
  EXPECT_NE(parsed.error.find("unknown status"), std::string::npos);
}

TEST(Protocol, OpAndStatusNamesRoundTrip) {
  for (Op op : {Op::kPing, Op::kStats, Op::kLoad, Op::kLint, Op::kIdentify,
                Op::kEvaluate, Op::kBatch, Op::kLift})
    EXPECT_EQ(parse_op(op_name(op)), op);
  EXPECT_FALSE(parse_op("nonsense").has_value());
  EXPECT_STREQ(status_name(Status::kBadRequest), "bad_request");
  EXPECT_STREQ(status_name(Status::kOverloaded), "overloaded");
}

// --- QoS clamp --------------------------------------------------------------

TEST(Protocol, ClampsClientBudgetToServerCeiling) {
  ArtifactCache cache;
  ExecutorConfig config;
  config.cache = &cache;
  config.base.exec.timeout = milliseconds(500);
  Executor executor(config);

  RequestOptions options;
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(500));

  options.timeout_ms = 100;  // under the ceiling: honored
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(100));

  options.timeout_ms = 5000;  // over the ceiling: clamped
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(500));

  options.timeout_ms = 0;  // "unlimited" still inherits the ceiling
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(500));
}

TEST(Protocol, UnlimitedCeilingHonorsAnyClientBudget) {
  ArtifactCache cache;
  ExecutorConfig config;
  config.cache = &cache;
  Executor executor(config);

  RequestOptions options;
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(0));
  options.timeout_ms = 123456;
  EXPECT_EQ(executor.config_for(options).exec.timeout, milliseconds(123456));
}

TEST(Protocol, OptionsOverlayTheBaseConfig) {
  ArtifactCache cache;
  ExecutorConfig config;
  config.cache = &cache;
  config.base.wordrec.cone_depth = 4;
  Executor executor(config);

  RequestOptions options;
  EXPECT_EQ(executor.config_for(options).wordrec.cone_depth, 4u);
  EXPECT_FALSE(executor.config_for(options).use_baseline);

  options.depth = 2;
  options.base = true;
  options.cross_group = true;
  options.max_assign = 1;
  const RunConfig effective = executor.config_for(options);
  EXPECT_EQ(effective.wordrec.cone_depth, 2u);
  EXPECT_TRUE(effective.use_baseline);
  EXPECT_TRUE(effective.wordrec.cross_group_checking);
  EXPECT_EQ(effective.wordrec.max_simultaneous_assignments, 1u);
}

// Applying options_of(c) to a default RunConfig reproduces every setting of
// c the record carries, directly and after a trip over the wire.
::testing::AssertionResult same_settings(const RunConfig& a,
                                         const RunConfig& b) {
  if (a.use_baseline != b.use_baseline)
    return ::testing::AssertionFailure() << "use_baseline";
  if (a.parse.permissive != b.parse.permissive)
    return ::testing::AssertionFailure() << "permissive";
  if (a.wordrec.cross_group_checking != b.wordrec.cross_group_checking)
    return ::testing::AssertionFailure() << "cross_group_checking";
  if (a.wordrec.use_dataflow != b.wordrec.use_dataflow)
    return ::testing::AssertionFailure() << "use_dataflow";
  if (a.wordrec.cone_depth != b.wordrec.cone_depth)
    return ::testing::AssertionFailure() << "cone_depth";
  if (a.wordrec.max_simultaneous_assignments !=
      b.wordrec.max_simultaneous_assignments)
    return ::testing::AssertionFailure() << "max_simultaneous_assignments";
  if (a.max_errors != b.max_errors)
    return ::testing::AssertionFailure() << "max_errors";
  if (a.exec.timeout != b.exec.timeout)
    return ::testing::AssertionFailure() << "timeout";
  if (a.exec.degrade.enabled != b.exec.degrade.enabled ||
      a.exec.degrade.floor != b.exec.degrade.floor)
    return ::testing::AssertionFailure() << "degrade";
  return ::testing::AssertionSuccess();
}

TEST(Protocol, OptionsOfRoundTripsEverySettingThroughApply) {
  std::size_t checked = 0;
  for (unsigned bools = 0; bools < 16; ++bools)
    for (const std::size_t depth : {1, 3, 4, 9})
      for (const std::size_t max_assign : {0, 1, 2, 5})
        for (const std::size_t max_errors : {1, 5, 64, 100000})
          for (const std::size_t timeout_ms : {0, 250, 60000})
            for (const char* degrade :
                 {"off", "full", "depth", "baseline", "groups"}) {
              RunConfig config;
              config.use_baseline = (bools & 1) != 0;
              config.parse.permissive = (bools & 2) != 0;
              config.wordrec.cross_group_checking = (bools & 4) != 0;
              config.wordrec.use_dataflow = (bools & 8) != 0;
              config.wordrec.cone_depth = depth;
              config.wordrec.max_simultaneous_assignments = max_assign;
              config.max_errors = max_errors;
              config.exec.timeout = milliseconds(timeout_ms);
              config.exec.degrade = *exec::parse_degrade_policy(degrade);

              Request request;
              request.op = Op::kIdentify;
              request.options = options_of(config);
              const ParsedRequest wire =
                  parse_request(render_request(request));
              ASSERT_TRUE(wire.request.has_value()) << wire.error;
              RunConfig direct;
              apply(request.options, direct);
              ASSERT_TRUE(same_settings(direct, config))
                  << render_request(request);
              RunConfig received;
              apply(wire.request->options, received);
              ASSERT_TRUE(same_settings(received, config))
                  << render_request(request);
              ++checked;
            }
  EXPECT_EQ(checked, 16u * 4 * 4 * 4 * 3 * 5);
}

// --- execution --------------------------------------------------------------

TEST(Protocol, ExecutesPing) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.id = "p1";
  request.op = Op::kPing;
  const Response response = executor.execute(request, exec::CancelToken());
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.id, "p1");
  EXPECT_EQ(response.result.rfind("{\"schema_version\":1,", 0), 0u)
      << response.result;
  EXPECT_NE(response.result.find("\"protocol\":1"), std::string::npos);
  EXPECT_NE(response.result.find("\"version\":"), std::string::npos);
}

TEST(Protocol, ExecutesLoad) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kLoad;
  request.design = "b03s";
  const Response response = executor.execute(request, exec::CancelToken());
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.result.find("\"design\":\"b03s\""), std::string::npos);
  EXPECT_NE(response.result.find("\"gates\":169"), std::string::npos);
}

// The daemon's error budget (ExecutorConfig::base, `serve --max-errors`) is
// the budget of a request that sets none; a request's own comes first.
TEST(Protocol, BaseErrorBudgetAppliesToRequestsThatSetNone) {
  // b03s with a line that does not parse after every seventh line: each is
  // one permissive-load error, far more than a budget of 2.
  const std::string path =
      (std::filesystem::temp_directory_path() / "netrev_protocol_budget.bench")
          .string();
  {
    std::istringstream source(
        parser::write_bench(itc::build_benchmark("b03s").netlist));
    std::ofstream damaged(path);
    std::string line;
    for (std::size_t n = 1; std::getline(source, line); ++n) {
      damaged << line << '\n';
      if (n % 7 == 0) damaged << "this line does not parse\n";
    }
  }
  const auto load = [&](std::optional<std::size_t> daemon_budget,
                        std::optional<std::size_t> request_budget) {
    ArtifactCache cache;
    ExecutorConfig config = with_cache(cache);
    if (daemon_budget) config.base.max_errors = *daemon_budget;
    Executor executor(config);
    Request request;
    request.op = Op::kLoad;
    request.design = path;
    request.options.permissive = true;
    request.options.max_errors = request_budget;
    const Response response = executor.execute(request, exec::CancelToken());
    return std::string(status_name(response.status)) + " " +
           response.diagnostics;
  };
  const std::string unbounded = load(std::nullopt, std::nullopt);
  const std::string bounded = load(std::nullopt, 2);
  EXPECT_NE(bounded, unbounded);
  EXPECT_EQ(load(2, std::nullopt), bounded);
  EXPECT_EQ(load(2, diag::Diagnostics::kDefaultMaxErrors), unbounded);
  std::filesystem::remove(path);
}

// Each technique, selected by the request's "base" option and by
// RunConfig::use_baseline respectively.
TEST(Protocol, IdentifyResultIsByteIdenticalToSessionJson) {
  for (bool base : {false, true}) {
    ArtifactCache cache;
    Executor executor(with_cache(cache));
    Request request;
    request.op = Op::kIdentify;
    request.design = "b03s";
    request.options.base = base;
    const Response response = executor.execute(request, exec::CancelToken());
    ASSERT_EQ(response.status, Status::kOk) << response.error;

    ArtifactCache reference_cache;
    RunConfig config;
    config.use_baseline = base;
    Session session(config, &reference_cache);
    const LoadedDesign design = session.load_netlist("b03s");
    EXPECT_EQ(response.result, session.identify_json(design))
        << "base=" << base;
  }
}

TEST(Protocol, LiftResultIsByteIdenticalToSessionJson) {
  for (bool base : {false, true}) {
    ArtifactCache cache;
    Executor executor(with_cache(cache));
    Request request;
    request.op = Op::kLift;
    request.design = "b03s";
    request.options.base = base;
    const Response response = executor.execute(request, exec::CancelToken());
    ASSERT_EQ(response.status, Status::kOk) << response.error;

    ArtifactCache reference_cache;
    RunConfig config;
    config.use_baseline = base;
    Session session(config, &reference_cache);
    const LoadedDesign design = session.load_netlist("b03s");
    EXPECT_EQ(response.result, session.lift_json(design)) << "base=" << base;
    EXPECT_NE(response.result.find("\"verdict\":\"equivalent\""),
              std::string::npos);
  }
}

TEST(Protocol, MissingDesignIsAnErrorResponseNotAThrow) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kIdentify;
  const Response response = executor.execute(request, exec::CancelToken());
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_NE(response.error.find("missing \"design\""), std::string::npos);
  EXPECT_TRUE(response.result.empty());
}

TEST(Protocol, UnknownDesignIsAnErrorResponse) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kLoad;
  request.design = "/nonexistent_netrev_protocol.bench";
  const Response response = executor.execute(request, exec::CancelToken());
  EXPECT_EQ(response.status, Status::kError);
  EXPECT_FALSE(response.error.empty());
}

TEST(Protocol, PreCancelledRequestReportsCancelled) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  exec::CancelToken cancel;
  cancel.request_cancel();
  Request request;
  request.op = Op::kIdentify;
  request.design = "b03s";
  const Response response = executor.execute(request, cancel);
  EXPECT_EQ(response.status, Status::kCancelled);
  EXPECT_TRUE(response.result.empty());
}

TEST(Protocol, RepeatedDesignsHitTheSharedCacheAcrossRequests) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kIdentify;
  request.design = "b03s";
  ASSERT_EQ(executor.execute(request, exec::CancelToken()).status, Status::kOk);
  const std::uint64_t hits_after_first = cache.hits();
  const Response second = executor.execute(request, exec::CancelToken());
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_GT(cache.hits(), hits_after_first);
}

TEST(Protocol, StatsCountEveryResponseIncludingRecordedSheds) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request ping;
  ping.op = Op::kPing;
  (void)executor.execute(ping, exec::CancelToken());
  (void)executor.execute(ping, exec::CancelToken());
  executor.record(Status::kOverloaded);   // what serve does on a shed
  executor.record(Status::kBadRequest);   // ...and on an unparseable line

  const std::string stats = executor.stats_json();
  EXPECT_NE(stats.find("\"total\":4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ok\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"overloaded\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"bad_request\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache\":{"), std::string::npos) << stats;
}

// --- health ------------------------------------------------------------------

TEST(Protocol, HealthWithoutASourceReportsZeros) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kHealth;
  const Response response = executor.execute(request, exec::CancelToken());
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.result.find("\"serve\":{\"uptime_s\":0"),
            std::string::npos)
      << response.result;
  EXPECT_NE(response.result.find("\"isolate\":false"), std::string::npos);
  EXPECT_NE(response.result.find("\"cache\":{\"entries\":0}"),
            std::string::npos);
}

TEST(Protocol, HealthReflectsTheInstalledSource) {
  struct FixedSource : HealthSource {
    HealthSnapshot health() const override {
      HealthSnapshot snap;
      snap.uptime_s = 42;
      snap.inflight = 1;
      snap.queued = 3;
      snap.isolate = true;
      snap.workers_alive = 2;
      snap.workers_restarted = 5;
      snap.workers_quarantined = 4;
      return snap;
    }
  };
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  FixedSource source;
  executor.set_health_source(&source);

  Request request;
  request.op = Op::kHealth;
  const Response response = executor.execute(request, exec::CancelToken());
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.result.find(
                "\"serve\":{\"uptime_s\":42,\"inflight\":1,\"queued\":3,"
                "\"workers\":{\"isolate\":true,\"alive\":2,\"restarted\":5,"
                "\"quarantined\":4}}"),
            std::string::npos)
      << response.result;

  // The same block rides along in stats once a source is installed.
  EXPECT_NE(executor.stats_json().find("\"workers\":{\"isolate\":true"),
            std::string::npos);
}

// --- entry (the worker op) ---------------------------------------------------

TEST(Protocol, EntryReturnsOneJournalLineForTheDesign) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kEntry;
  request.design = "b03s";
  const Response response = executor.execute(request, exec::CancelToken());
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  // The result is exactly one rendered journal record (sans newline) under
  // the placeholder key — the supervisor re-parses it on the other side.
  EXPECT_EQ(response.result.rfind("{\"v\":1,\"key\":\"0000000000000000\"", 0),
            0u)
      << response.result;
  EXPECT_NE(response.result.find("\"spec\":\"b03s\""), std::string::npos);
  EXPECT_NE(response.result.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(response.result.find('\n'), std::string::npos);
}

TEST(Protocol, EntryFailuresAreRecordedInTheJournalLineNotTheStatus) {
  // A bad design is a *successful* entry round trip whose journal line says
  // "failed" — only transport/crash problems surface as non-ok statuses.
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kEntry;
  request.design = "no-such-design.bench";
  const Response response = executor.execute(request, exec::CancelToken());
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  EXPECT_NE(response.result.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(response.result.find("\"stage\":\"load\""), std::string::npos);
}

TEST(Protocol, EntryWithoutADesignIsAnError) {
  ArtifactCache cache;
  Executor executor(with_cache(cache));
  Request request;
  request.op = Op::kEntry;
  const Response response = executor.execute(request, exec::CancelToken());
  EXPECT_NE(response.status, Status::kOk);
  EXPECT_FALSE(response.error.empty());
}

TEST(Protocol, WorkerCrashedStatusRoundTripsOnTheWire) {
  Response response;
  response.id = "r1";
  response.status = Status::kWorkerCrashed;
  response.error = "worker crashed: signal 11 (SIGSEGV)";
  const ParsedResponse parsed = parse_response(render_response(response));
  ASSERT_TRUE(parsed.response.has_value()) << parsed.error;
  EXPECT_EQ(parsed.response->status, Status::kWorkerCrashed);
  EXPECT_EQ(parsed.response->error, response.error);
}

}  // namespace
}  // namespace netrev::pipeline::protocol
