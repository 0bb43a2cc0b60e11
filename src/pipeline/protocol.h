// The serve wire protocol: newline-delimited JSON requests and responses.
//
// This module is deliberately transport-free — it parses request lines,
// renders response lines, and executes requests against a shared
// ArtifactCache — so the whole protocol surface is unit-testable without
// opening a socket.  pipeline/serve.h supplies the sockets, admission
// control, and drain choreography on top.
//
// Request line (one JSON object, one line):
//
//   {"id":"r1","op":"identify","design":"b03s",
//    "options":{"base":false,"depth":4,"max_assign":2,"cross_group":false,
//               "permissive":false,"timeout_ms":1000,"degrade":"groups",
//               "max_errors":64}}
//
// Ops: "ping", "stats", "load", "lint", "identify", "evaluate", "batch",
// "lift", "health", "entry" (batch takes "designs":[...] instead of
// "design").  Every field except "op" is optional; an omitted "id" is
// assigned by the server.
//
// Response line:
//
//   {"id":"r1","status":"ok","result":{...}}
//   {"id":"r1","status":"degraded","result":{...}}      // QoS ladder engaged
//   {"id":"r2","status":"overloaded","error":"..."}     // admission shed
//   {"id":"r3","status":"deadline","error":"..."}       // budget, degrade off
//   {"id":"r4","status":"cancelled","error":"..."}      // drain cancelled it
//   {"id":"r5","status":"error","error":"..."}          // request failed
//   {"id":"?","status":"bad_request","error":"..."}     // unparseable line
//
// Determinism contract: for identical inputs and options, the "result" body
// of identify/evaluate/lint/batch/lift is byte-identical to the one-shot
// CLI's JSON output at any --jobs (the Executor routes through the same
// Session code paths and the same renderers).
//
// QoS: the client requests a degradation floor ("degrade") and a wall-clock
// budget ("timeout_ms"); the server enforces a ceiling — client budgets are
// clamped to the budget of ExecutorConfig::base, and an omitted budget
// inherits it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exec/cancel.h"
#include "exec/degrade.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/run_config.h"

namespace netrev::pipeline::protocol {

inline constexpr int kProtocolVersion = 1;

enum class Op {
  kPing,
  kStats,
  kLoad,
  kLint,
  kIdentify,
  kEvaluate,
  kBatch,
  kLift,
  // Readiness probe for load balancers: uptime, inflight/queued counts, and
  // worker-pool health (alive/restarted/quarantined) when serving isolated.
  kHealth,
  // One batch entry end to end; the result is the flat journal-line object
  // (pipeline/journal.h).  This is the supervisor<->worker op behind
  // `batch --isolate` — reusing the journal rendering is what makes an
  // isolated entry's bytes identical to an in-process one.
  kEntry,
};

const char* op_name(Op op);
std::optional<Op> parse_op(const std::string& name);

// The one record of a run's settings, filled by the CLI's flag parser, sent
// by `netrev client`, and sent by supervisors to their workers.  Unset
// fields inherit the RunConfig the record is applied to.
struct RequestOptions {
  std::optional<bool> base;
  std::optional<bool> permissive;
  std::optional<bool> cross_group;
  std::optional<bool> use_dataflow;
  std::optional<std::size_t> depth;
  std::optional<std::size_t> max_assign;
  std::optional<std::size_t> max_errors;
  // Wall-clock budget; a server clamps a request's to its ceiling.
  std::optional<std::size_t> timeout_ms;
  // Degradation floor (QoS): how far identification may fall when the
  // budget trips ("off" = fail with status "deadline").
  std::optional<exec::DegradePolicy> degrade;
};

// Overlays the set fields of `options` onto `config`, and its inverse with
// every field set: apply(options_of(c), config) reproduces c's settings.
void apply(const RequestOptions& options, RunConfig& config);
RequestOptions options_of(const RunConfig& config);

// The guard of every isolated run: an isolated worker starts from
// RunConfig{} and applies each request's options, so a setting options_of()
// cannot carry (lint rules, lift verification, parse limits, the wordrec
// knobs outside the record) would silently run at the worker's default.
// Throws std::invalid_argument naming the first setting group — parse,
// wordrec, analysis or lift — whose fingerprint differs between `config`
// and apply(options_of(config), RunConfig{}).
void require_carried(const RunConfig& config);

struct Request {
  std::string id;  // echoed in the response; server-assigned when empty
  Op op = Op::kPing;
  std::string design;                // load/lint/identify/evaluate
  std::vector<std::string> designs;  // batch
  RequestOptions options;
};

enum class Status {
  kOk,
  kDegraded,    // completed on a lower QoS rung (result still present)
  kOverloaded,  // shed by admission control or a draining server
  kDeadline,    // budget tripped and the degrade floor forbade falling
  kCancelled,   // drain window expired while the request was in flight
  kError,          // the request itself failed (bad design, unusable input)
  kBadRequest,     // the line was not a valid request
  kWorkerCrashed,  // isolated execution: the worker process died on this
                   // request; the daemon itself kept serving
};

const char* status_name(Status status);

struct Response {
  std::string id;
  Status status = Status::kOk;
  std::string result;       // JSON body; empty = none
  std::string error;        // message for non-ok statuses
  std::string diagnostics;  // diagnostics JSON when any were collected
};

// Parses one request line.  On failure `request` is empty and `error` holds
// a one-line description (the caller answers with status "bad_request").
struct ParsedRequest {
  std::optional<Request> request;
  std::string error;
};
ParsedRequest parse_request(const std::string& line);

// Renders a request/response as a single line WITHOUT the trailing newline.
std::string render_request(const Request& request);
std::string render_response(const Response& response);

// Parses a response line (the client side of the wire).
struct ParsedResponse {
  std::optional<Response> response;
  std::string error;
};
ParsedResponse parse_response(const std::string& line);

// --- execution --------------------------------------------------------------

// Live serving counters for the "health" op, supplied by the serve layer
// (the Executor itself has no notion of queues or worker processes).  All
// fields are snapshots; absent pool -> the workers block reports zeros with
// isolate=false.
struct HealthSnapshot {
  std::uint64_t uptime_s = 0;
  std::size_t inflight = 0;
  std::size_t queued = 0;
  bool isolate = false;
  std::size_t workers_alive = 0;
  std::size_t workers_restarted = 0;
  std::size_t workers_quarantined = 0;  // requests answered worker_crashed
};

class HealthSource {
 public:
  virtual ~HealthSource() = default;
  virtual HealthSnapshot health() const = 0;
};

struct ExecutorConfig {
  // Server-wide defaults a request's options overlay (its max_errors is the
  // diagnostics budget of requests that set none).  Its exec.timeout is the
  // per-request ceiling, 0 = unlimited: client budgets are clamped to it, and
  // requests without a budget inherit it.
  RunConfig base;
  // Shared artifact cache; null = the process-global cache.
  ArtifactCache* cache = nullptr;
  // File-probe retry count for the "entry" op only (mirrors
  // BatchOptions::retries, at BatchOptions' default backoff, so an isolated
  // batch entry probes files exactly like its in-process twin would).
  std::size_t entry_retries = 0;
};

// Executes requests, one Session per request over the shared cache so
// repeated designs are warm across requests.  Thread-safe; execute() never
// throws.  Also the stats book-keeper: the serve layer reports responses it
// synthesizes itself (sheds, bad requests) via record(), so the "stats" op
// sees every response the server ever produced.
class Executor {
 public:
  explicit Executor(ExecutorConfig config);

  // Runs one request under `cancel` (the serve layer cancels it on drain
  // timeout).  The returned response is already record()ed.
  Response execute(const Request& request, exec::CancelToken cancel);

  // Counts a response produced outside execute() (admission sheds,
  // bad-request answers) into the stats.
  void record(Status status);

  // {"schema_version":1,"protocol":1,"version":"...",
  //  "requests":{"total":N,"ok":N,...},
  //  "cache":{"hits":N,"misses":N,"evictions":N,"entries":N}}
  // With a health source attached, a "serve" block with the same counters
  // as the health op is appended (absent otherwise, so stats from one-shot
  // executors and worker processes keep their historical shape).
  std::string stats_json() const;

  // {"schema_version":1,"protocol":1,"version":"...",
  //  "serve":{"uptime_s":N,"inflight":N,"queued":N,
  //           "workers":{"isolate":B,"alive":N,"restarted":N,
  //                      "quarantined":N}},
  //  "cache":{"entries":N}}
  // Without a health source the counters are all zero (isolate false).
  std::string health_json() const;

  // Wires the serve layer's live counters into the health op; null
  // disconnects.  The source must outlive the executor.
  void set_health_source(const HealthSource* source) { health_ = source; }

  ArtifactCache& cache() { return *cache_; }

  // The effective RunConfig a request with `options` executes under: the
  // options applied to the base, the budget clamped to the ceiling.
  RunConfig config_for(const RequestOptions& options) const;

 private:
  ExecutorConfig config_;
  ArtifactCache* cache_;
  const HealthSource* health_ = nullptr;
  std::atomic<std::uint64_t> by_status_[8] = {};
};

}  // namespace netrev::pipeline::protocol
