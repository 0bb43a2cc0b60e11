#include "pipeline/protocol.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/diagnostics.h"
#include "common/version.h"
#include "eval/report.h"
#include "exec/chaos.h"
#include "jsonin/jsonin.h"
#include "jsonout/jsonout.h"
#include "netlist/stats.h"
#include "perf/profile.h"
#include "pipeline/batch.h"
#include "pipeline/fingerprint.h"
#include "pipeline/journal.h"
#include "pipeline/manifest.h"
#include "pipeline/session.h"
#include "wordrec/degrade.h"

namespace netrev::pipeline::protocol {

namespace {

// The serving-counters object shared by the "health" op and the "stats"
// serve block, so the two surfaces can never drift apart.
std::string serve_block(const HealthSnapshot& snap) {
  std::string out = "{\"uptime_s\":" + std::to_string(snap.uptime_s);
  out += ",\"inflight\":" + std::to_string(snap.inflight);
  out += ",\"queued\":" + std::to_string(snap.queued);
  out += ",\"workers\":{\"isolate\":";
  out += snap.isolate ? "true" : "false";
  out += ",\"alive\":" + std::to_string(snap.workers_alive);
  out += ",\"restarted\":" + std::to_string(snap.workers_restarted);
  out += ",\"quarantined\":" + std::to_string(snap.workers_quarantined);
  out += "}}";
  return out;
}

// --- request field extraction ----------------------------------------------

using jsonin::Value;
using Kind = Value::Kind;

// Strict field readers: a present-but-mistyped field is an error, so typos
// surface as bad_request instead of being silently ignored.

bool read_string(const Value& object, const char* key, std::string& out,
                 std::string& error) {
  const Value* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != Kind::kString) {
    error = std::string("\"") + key + "\" must be a string";
    return false;
  }
  out = value->string;
  return true;
}

bool read_bool(const Value& object, const char* key,
               std::optional<bool>& out, std::string& error) {
  const Value* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != Kind::kBool) {
    error = std::string("\"") + key + "\" must be a boolean";
    return false;
  }
  out = value->boolean;
  return true;
}

bool read_count(const Value& object, const char* key,
                std::optional<std::size_t>& out, std::string& error) {
  const Value* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != Kind::kNumber || !value->integral) {
    error = std::string("\"") + key + "\" must be a non-negative integer";
    return false;
  }
  out = static_cast<std::size_t>(value->number);
  return true;
}

// The wire names of the flag and count options, in rendering order;
// "degrade" follows them.
constexpr std::pair<const char*, std::optional<bool> RequestOptions::*>
    kFlagOptions[] = {{"base", &RequestOptions::base},
                      {"permissive", &RequestOptions::permissive},
                      {"cross_group", &RequestOptions::cross_group},
                      {"use_dataflow", &RequestOptions::use_dataflow}};
constexpr std::pair<const char*, std::optional<std::size_t> RequestOptions::*>
    kCountOptions[] = {{"depth", &RequestOptions::depth},
                       {"max_assign", &RequestOptions::max_assign},
                       {"max_errors", &RequestOptions::max_errors},
                       {"timeout_ms", &RequestOptions::timeout_ms}};

bool read_options(const Value& object, RequestOptions& out,
                  std::string& error) {
  const Value* options = object.find("options");
  if (options == nullptr) return true;
  if (options->kind != Kind::kObject) {
    error = "\"options\" must be an object";
    return false;
  }
  for (const auto& [key, value] : options->object) {
    (void)value;
    bool recognized = key == "degrade";
    for (const auto& [name, field] : kFlagOptions) recognized |= key == name;
    for (const auto& [name, field] : kCountOptions) recognized |= key == name;
    if (!recognized) {
      error = "unknown option \"" + key + "\"";
      return false;
    }
  }
  for (const auto& [name, field] : kFlagOptions)
    if (!read_bool(*options, name, out.*field, error)) return false;
  for (const auto& [name, field] : kCountOptions) {
    if (!read_count(*options, name, out.*field, error)) return false;
    if (out.depth == 0u) {
      // A fan-in cone of depth 0 holds no gate to hash.
      error = "\"depth\" must be a positive integer";
      return false;
    }
  }
  if (const Value* degrade = options->find("degrade")) {
    if (degrade->kind != Kind::kString) {
      error = "\"degrade\" must be a string";
      return false;
    }
    const auto policy = exec::parse_degrade_policy(degrade->string);
    if (!policy) {
      error = "\"degrade\" expects off, full, depth, baseline, or groups; "
              "got \"" + degrade->string + "\"";
      return false;
    }
    out.degrade = *policy;
  }
  return true;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kStats:
      return "stats";
    case Op::kLoad:
      return "load";
    case Op::kLint:
      return "lint";
    case Op::kIdentify:
      return "identify";
    case Op::kEvaluate:
      return "evaluate";
    case Op::kBatch:
      return "batch";
    case Op::kLift:
      return "lift";
    case Op::kHealth:
      return "health";
    case Op::kEntry:
      return "entry";
  }
  return "unknown";
}

namespace {

constexpr Op kAllOps[] = {Op::kPing,     Op::kStats,    Op::kLoad,
                          Op::kLint,     Op::kIdentify, Op::kEvaluate,
                          Op::kBatch,    Op::kLift,     Op::kHealth,
                          Op::kEntry};

// "ping, stats, ..., or lift" — the bad_request text enumerates every op so
// a client learns the full surface (including newly added ops) from the
// error itself.
std::string op_list() {
  std::string out;
  for (std::size_t i = 0; i < std::size(kAllOps); ++i) {
    if (i > 0) out += i + 1 == std::size(kAllOps) ? ", or " : ", ";
    out += op_name(kAllOps[i]);
  }
  return out;
}

}  // namespace

std::optional<Op> parse_op(const std::string& name) {
  for (Op op : kAllOps)
    if (name == op_name(op)) return op;
  return std::nullopt;
}

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kDegraded:
      return "degraded";
    case Status::kOverloaded:
      return "overloaded";
    case Status::kDeadline:
      return "deadline";
    case Status::kCancelled:
      return "cancelled";
    case Status::kError:
      return "error";
    case Status::kBadRequest:
      return "bad_request";
    case Status::kWorkerCrashed:
      return "worker_crashed";
  }
  return "unknown";
}

ParsedRequest parse_request(const std::string& line) {
  ParsedRequest out;
  Value root;
  if (!jsonin::parse(line, root, out.error)) return out;
  if (root.kind != Kind::kObject) {
    out.error = "request must be a JSON object";
    return out;
  }

  Request request;
  if (!read_string(root, "id", request.id, out.error)) return out;

  std::string op_field;
  if (!read_string(root, "op", op_field, out.error)) return out;
  if (op_field.empty()) {
    out.error = "missing \"op\"";
    return out;
  }
  const auto op = parse_op(op_field);
  if (!op) {
    out.error = "unknown op \"" + op_field + "\" (expected " + op_list() + ")";
    return out;
  }
  request.op = *op;

  if (!read_string(root, "design", request.design, out.error)) return out;
  if (const Value* designs = root.find("designs")) {
    if (designs->kind != Kind::kArray) {
      out.error = "\"designs\" must be an array of strings";
      return out;
    }
    for (const Value& entry : designs->array) {
      if (entry.kind != Kind::kString) {
        out.error = "\"designs\" must be an array of strings";
        return out;
      }
      request.designs.push_back(entry.string);
    }
  }
  if (!read_options(root, request.options, out.error)) return out;

  out.request = std::move(request);
  return out;
}

std::string render_request(const Request& request) {
  std::string out = "{";
  if (!request.id.empty()) out += "\"id\":" + jsonout::quote(request.id) + ",";
  out += "\"op\":\"";
  out += op_name(request.op);
  out += "\"";
  if (!request.design.empty())
    out += ",\"design\":" + jsonout::quote(request.design);
  if (!request.designs.empty()) {
    out += ",\"designs\":[";
    for (std::size_t i = 0; i < request.designs.size(); ++i) {
      if (i > 0) out += ",";
      out += jsonout::quote(request.designs[i]);
    }
    out += "]";
  }

  const RequestOptions& o = request.options;
  std::string options;
  const auto add = [&options](const std::string& field) {
    if (!options.empty()) options += ",";
    options += field;
  };
  for (const auto& [name, field] : kFlagOptions)
    if (o.*field)
      add(std::string("\"") + name + "\":" + (*(o.*field) ? "true" : "false"));
  for (const auto& [name, field] : kCountOptions)
    if (o.*field)
      add(std::string("\"") + name + "\":" + std::to_string(*(o.*field)));
  if (o.degrade) {
    const char* name = o.degrade->enabled
                           ? exec::degrade_level_name(o.degrade->floor)
                           : "off";
    add(std::string("\"degrade\":\"") + name + "\"");
  }
  if (!options.empty()) out += ",\"options\":{" + options + "}";
  out += "}";
  return out;
}

void apply(const RequestOptions& options, RunConfig& config) {
  if (options.base) config.use_baseline = *options.base;
  if (options.permissive) config.parse.permissive = *options.permissive;
  if (options.cross_group)
    config.wordrec.cross_group_checking = *options.cross_group;
  if (options.use_dataflow)
    config.wordrec.use_dataflow = *options.use_dataflow;
  if (options.depth) config.wordrec.cone_depth = *options.depth;
  if (options.max_assign)
    config.wordrec.max_simultaneous_assignments = *options.max_assign;
  if (options.max_errors) config.max_errors = *options.max_errors;
  if (options.timeout_ms)
    config.exec.timeout = std::chrono::milliseconds(*options.timeout_ms);
  if (options.degrade) config.exec.degrade = *options.degrade;
}

RequestOptions options_of(const RunConfig& config) {
  RequestOptions options;
  options.base = config.use_baseline;
  options.permissive = config.parse.permissive;
  options.cross_group = config.wordrec.cross_group_checking;
  options.use_dataflow = config.wordrec.use_dataflow;
  options.depth = config.wordrec.cone_depth;
  options.max_assign = config.wordrec.max_simultaneous_assignments;
  options.max_errors = config.max_errors;
  options.timeout_ms = static_cast<std::size_t>(config.exec.timeout.count());
  options.degrade = config.exec.degrade;
  return options;
}

void require_carried(const RunConfig& config) {
  RunConfig carried;
  apply(options_of(config), carried);
  using Fingerprint = std::uint64_t (RunConfig::*)() const;
  const std::pair<const char*, Fingerprint> groups[] = {
      {"parse", &RunConfig::parse_fingerprint},
      {"wordrec", &RunConfig::wordrec_fingerprint},
      {"analysis", &RunConfig::analysis_fingerprint},
      {"lift", &RunConfig::lift_fingerprint}};
  for (const auto& [group, fingerprint] : groups)
    if ((carried.*fingerprint)() != (config.*fingerprint)())
      throw std::invalid_argument(
          std::string("isolated runs cannot carry this run's ") + group +
          " settings: a request carries only its options, so a worker would "
          "run them at its defaults");
}

std::string render_response(const Response& response) {
  std::string out = "{\"id\":" + jsonout::quote(response.id) + ",\"status\":\"";
  out += status_name(response.status);
  out += "\"";
  if (!response.result.empty()) out += ",\"result\":" + response.result;
  if (!response.error.empty())
    out += ",\"error\":" + jsonout::quote(response.error);
  if (!response.diagnostics.empty())
    out += ",\"diagnostics\":" + response.diagnostics;
  out += "}";
  return out;
}

ParsedResponse parse_response(const std::string& line) {
  ParsedResponse out;
  Value root;
  if (!jsonin::parse(line, root, out.error)) return out;
  if (root.kind != Kind::kObject) {
    out.error = "response must be a JSON object";
    return out;
  }
  Response response;
  if (!read_string(root, "id", response.id, out.error)) return out;
  std::string status_field;
  if (!read_string(root, "status", status_field, out.error)) return out;
  bool known_status = false;
  for (Status status :
       {Status::kOk, Status::kDegraded, Status::kOverloaded, Status::kDeadline,
        Status::kCancelled, Status::kError, Status::kBadRequest,
        Status::kWorkerCrashed}) {
    if (status_field == status_name(status)) {
      response.status = status;
      known_status = true;
    }
  }
  if (!known_status) {
    out.error = "unknown status \"" + status_field + "\"";
    return out;
  }
  if (!read_string(root, "error", response.error, out.error)) return out;
  // The raw source spans preserve the server's exact bytes — the client
  // re-prints "result" byte-identically to the one-shot CLI.
  if (const Value* result = root.find("result"))
    response.result = line.substr(result->begin, result->end - result->begin);
  if (const Value* diagnostics = root.find("diagnostics"))
    response.diagnostics =
        line.substr(diagnostics->begin, diagnostics->end - diagnostics->begin);
  out.response = std::move(response);
  return out;
}

// --- Executor ---------------------------------------------------------------

Executor::Executor(ExecutorConfig config)
    : config_(std::move(config)),
      cache_(config_.cache != nullptr ? config_.cache
                                      : &ArtifactCache::global()) {
  // Apply the capacity bound once up front; per-request Sessions re-apply it
  // idempotently.
  if (config_.base.cache_entries)
    cache_->set_max_entries(*config_.base.cache_entries);
}

RunConfig Executor::config_for(const RequestOptions& options) const {
  RunConfig config = config_.base;
  apply(options, config);
  // QoS clamp: the client's budget never exceeds the server ceiling (the
  // base's budget), and an omitted (or explicit 0 = "unlimited") budget
  // inherits the ceiling.
  const std::chrono::milliseconds ceiling = config_.base.exec.timeout;
  std::chrono::milliseconds& budget = config.exec.timeout;
  if (budget.count() == 0 || (ceiling.count() > 0 && budget > ceiling))
    budget = ceiling;
  return config;
}

void Executor::record(Status status) {
  by_status_[static_cast<std::size_t>(status)].fetch_add(
      1, std::memory_order_relaxed);
  perf::Profiler::global().count(perf::counter<"serve.requests">(), 1);
}

Response Executor::execute(const Request& request, exec::CancelToken cancel) {
  perf::Stage stage("serve.request");
  // Scope chaos injection (NETREV_CHAOS=<mode>@<stage>:<match>) to this
  // request's design, so a fault target wired for one design leaves every
  // other request on this thread untouched.
  exec::ChaosScope chaos_scope(request.design);
  Response response;
  response.id = request.id;

  RunConfig config = config_for(request.options);
  config.exec.cancel = std::move(cancel);

  diag::Diagnostics diags(config.max_errors);

  try {
    switch (request.op) {
      case Op::kPing:
        response.result = "{" + jsonout::version_field() +
                          ",\"protocol\":" + std::to_string(kProtocolVersion) +
                          ",\"version\":" + jsonout::quote(version()) + "}";
        break;

      case Op::kStats:
        response.result = stats_json();
        break;

      case Op::kHealth:
        response.result = health_json();
        break;

      case Op::kEntry: {
        if (request.design.empty())
          throw std::invalid_argument("entry: missing \"design\"");
        BatchOptions options;
        options.config = config;
        // A failed entry is a RESULT here (a journal line with status
        // "failed"), not a request error — the supervisor quarantines only
        // crashes, never clean failures.
        options.keep_going = true;
        options.retries = config_.entry_retries;
        options.cache = cache_;
        const BatchResult result = run_batch({request.design}, options);
        if (result.interrupted()) {
          response.status = Status::kCancelled;
          response.error = "entry cancelled";
          break;
        }
        // The result IS one journal line (sans newline): supervisor and
        // worker agree on the bytes by sharing the renderer.  The key slot
        // is a placeholder — only the supervisor knows the real key.
        std::string line =
            render_journal_line("0000000000000000", result.entries.front());
        if (!line.empty() && line.back() == '\n') line.pop_back();
        response.result = std::move(line);
        break;
      }

      case Op::kBatch: {
        if (request.designs.empty())
          throw std::invalid_argument("batch: missing \"designs\"");
        BatchOptions options;
        options.config = config;
        // Request-level fault isolation: one bad design fails its entry,
        // never the request (the serve analogue of batch --keep-going).
        options.keep_going = true;
        options.cache = cache_;
        const BatchResult result =
            run_batch(expand_specs(request.designs), options);
        response.result = result.to_json();
        if (result.interrupted()) {
          response.status = Status::kCancelled;
          response.error = "batch cancelled";
        }
        break;
      }

      case Op::kLoad:
      case Op::kLint:
      case Op::kIdentify:
      case Op::kEvaluate:
      case Op::kLift: {
        if (request.design.empty())
          throw std::invalid_argument(std::string(op_name(request.op)) +
                                      ": missing \"design\"");
        Session session(config, cache_);
        const LoadedDesign design =
            session.load_netlist(request.design, config.parse, diags);

        if (request.op == Op::kLoad) {
          const auto stats = netlist::compute_stats(design.nl());
          response.result =
              "{" + jsonout::version_field() +
              ",\"design\":" + jsonout::quote(request.design) +
              ",\"identity\":\"" + hex16(design.identity) +
              "\",\"gates\":" + std::to_string(stats.gates) +
              ",\"nets\":" + std::to_string(stats.nets) +
              ",\"flops\":" + std::to_string(stats.flops) +
              ",\"inputs\":" + std::to_string(stats.primary_inputs) +
              ",\"outputs\":" + std::to_string(stats.primary_outputs) + "}";
          break;
        }

        if (request.op == Op::kLint) {
          const auto analysis = session.analyze(design);
          response.result = eval::analysis_to_json(design.nl(), *analysis);
          break;
        }

        // The identify, lift and evaluate ops read their words through
        // identify(); a degraded identification marks the response.
        const auto flag_degraded = [&](const wordrec::IdentifyResult& result) {
          if (!result.degraded()) return;
          response.status = Status::kDegraded;
          wordrec::report_degradation(result, diags);
        };

        if (request.op == Op::kIdentify) {
          // Byte-identical to `netrev identify <design> --json`.
          response.result = session.identify_json(design);
          flag_degraded(*session.identify(design));  // cache hit
          break;
        }

        if (request.op == Op::kLift) {
          // Byte-identical to `netrev lift <design>`.
          response.result = session.lift_json(design);
          flag_degraded(*session.identify(design));  // cache hit
          break;
        }

        // evaluate — byte-identical to `netrev evaluate <design> --json`.
        const Session::Evaluation evaluation = session.evaluate(design);
        flag_degraded(*evaluation.identified);
        response.result = eval::evaluate_doc_to_json(
            evaluation.to_json(),
            eval::analysis_to_json(design.nl(), *session.analyze(design)));
        break;
      }
    }
  } catch (const exec::DeadlineExceededError& error) {
    response.status = Status::kDeadline;
    response.result.clear();
    response.error = error.what();
  } catch (const exec::CancelledError& error) {
    response.status = Status::kCancelled;
    response.result.clear();
    response.error = error.what();
  } catch (const UnusableInputError& error) {
    response.status = Status::kError;
    response.result.clear();
    response.error = error.what();
  } catch (const std::exception& error) {
    response.status = Status::kError;
    response.result.clear();
    response.error = error.what();
  }

  if (!diags.empty()) response.diagnostics = diags.to_json();
  record(response.status);
  return response;
}

std::string Executor::stats_json() const {
  std::uint64_t total = 0;
  for (const auto& counter : by_status_)
    total += counter.load(std::memory_order_relaxed);
  const auto count = [&](Status status) {
    return std::to_string(by_status_[static_cast<std::size_t>(status)].load(
        std::memory_order_relaxed));
  };
  std::string out = "{" + jsonout::version_field() +
                    ",\"protocol\":" + std::to_string(kProtocolVersion) +
                    ",\"version\":" + jsonout::quote(version());
  out += ",\"requests\":{\"total\":" + std::to_string(total);
  for (Status status :
       {Status::kOk, Status::kDegraded, Status::kOverloaded, Status::kDeadline,
        Status::kCancelled, Status::kError, Status::kBadRequest,
        Status::kWorkerCrashed}) {
    out += ",\"";
    out += status_name(status);
    out += "\":" + count(status);
  }
  out += "},\"cache\":{\"hits\":" + std::to_string(cache_->hits());
  out += ",\"misses\":" + std::to_string(cache_->misses());
  out += ",\"evictions\":" + std::to_string(cache_->evictions());
  out += ",\"entries\":" + std::to_string(cache_->size());
  out += ",\"max_entries\":" + std::to_string(cache_->max_entries());
  out += "}";
  // One-shot executors and worker processes have no serve layer — the block
  // appears only when a health source is attached, keeping their stats
  // shape historical.
  if (health_ != nullptr) out += ",\"serve\":" + serve_block(health_->health());
  out += "}";
  return out;
}

std::string Executor::health_json() const {
  const HealthSnapshot snap =
      health_ != nullptr ? health_->health() : HealthSnapshot{};
  std::string out = "{" + jsonout::version_field() +
                    ",\"protocol\":" + std::to_string(kProtocolVersion) +
                    ",\"version\":" + jsonout::quote(version());
  out += ",\"serve\":" + serve_block(snap);
  out += ",\"cache\":{\"entries\":" + std::to_string(cache_->size()) + "}}";
  return out;
}

}  // namespace netrev::pipeline::protocol
