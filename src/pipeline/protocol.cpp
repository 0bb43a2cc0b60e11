#include "pipeline/protocol.h"

#include <cctype>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/diagnostics.h"
#include "common/version.h"
#include "eval/diagnose.h"
#include "eval/report.h"
#include "exec/chaos.h"
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

// --- minimal JSON reader ---------------------------------------------------
// Parses the full JSON grammar the protocol needs: objects, arrays, strings,
// non-negative integers, booleans, null.  Every value records its source
// span so callers can recover raw bytes (the client re-prints a response's
// "result" exactly as the server rendered it).

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  // Only meaningful when integral: the protocol interprets nothing but
  // non-negative integers (request options).  Floats and negatives still
  // PARSE — response results carry arbitrary JSON (evaluation metrics are
  // fractional) recovered raw via the source span — they are just never
  // interpreted as counts.
  bool integral = false;
  std::uint64_t number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::size_t begin = 0;  // source span [begin, end) in the parsed line
  std::size_t end = 0;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [name, value] : object)
      if (name == key) return &value;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole line as one value; returns false with `error_` set on
  // malformed input or trailing garbage.
  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& message) {
    if (error_.empty())
      error_ = message + " at offset " + std::to_string(pos_);
    return false;
  }

  static constexpr int kMaxDepth = 256;

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool parse_value(JsonValue& out) {
    out.begin = pos_;
    bool ok = false;
    switch (peek()) {
      // The parser is recursive-descent, so nesting depth is stack depth:
      // without a bound, a hostile frame of brackets — well within any
      // byte limit — would overflow the stack and kill the process.
      case '{':
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        ok = parse_object(out);
        --depth_;
        break;
      case '[':
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        ok = parse_array(out);
        --depth_;
        break;
      case '"':
        out.kind = JsonValue::Kind::kString;
        ok = parse_string(out.string);
        break;
      case 't':
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        ok = parse_bool(out.boolean);
        break;
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        ok = parse_null();
        break;
      default:
        ok = parse_number(out);
        break;
    }
    out.end = pos_;
    return ok;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_bool(bool& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = false;
      return true;
    }
    return fail("expected boolean");
  }

  bool parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) return fail("expected null");
    pos_ += 4;
    return true;
  }

  bool parse_number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const bool negative = consume('-');
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
      return fail("expected a number");
    out.integral = !negative;
    out.number = 0;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      const std::uint64_t digit = static_cast<std::uint64_t>(peek() - '0');
      if (out.number > (UINT64_MAX - digit) / 10)
        out.integral = false;  // carried raw via the span, never interpreted
      else
        out.number = out.number * 10 + digit;
      ++pos_;
    }
    if (consume('.')) {
      out.integral = false;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return fail("expected digits after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      out.integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return fail("expected digits in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return true;
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit =
                hex_digit(text_[pos_ + static_cast<std::size_t>(i)]);
            if (digit < 0) return fail("bad \\u escape");
            code = code * 16 + digit;
          }
          pos_ += 4;
          // The emitters only \u-escape control bytes; reject anything that
          // does not fit one byte instead of mis-encoding it.
          if (code > 0xff) return fail("unsupported \\u code point");
          out += static_cast<char>(code);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

// --- request field extraction ----------------------------------------------

// Strict field readers: a present-but-mistyped field is an error, so typos
// surface as bad_request instead of being silently ignored.

bool read_string(const JsonValue& object, const char* key, std::string& out,
                 std::string& error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != JsonValue::Kind::kString) {
    error = std::string("\"") + key + "\" must be a string";
    return false;
  }
  out = value->string;
  return true;
}

bool read_bool(const JsonValue& object, const char* key,
               std::optional<bool>& out, std::string& error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != JsonValue::Kind::kBool) {
    error = std::string("\"") + key + "\" must be a boolean";
    return false;
  }
  out = value->boolean;
  return true;
}

bool read_count(const JsonValue& object, const char* key,
                std::optional<std::size_t>& out, std::string& error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;
  if (value->kind != JsonValue::Kind::kNumber || !value->integral) {
    error = std::string("\"") + key + "\" must be a non-negative integer";
    return false;
  }
  out = static_cast<std::size_t>(value->number);
  return true;
}

bool read_options(const JsonValue& object, RequestOptions& out,
                  std::string& error) {
  const JsonValue* options = object.find("options");
  if (options == nullptr) return true;
  if (options->kind != JsonValue::Kind::kObject) {
    error = "\"options\" must be an object";
    return false;
  }
  static const char* known[] = {"base",        "permissive", "cross_group",
                                "use_dataflow", "depth",     "max_assign",
                                "max_errors",  "timeout_ms", "degrade"};
  for (const auto& [key, value] : options->object) {
    (void)value;
    bool recognized = false;
    for (const char* name : known)
      if (key == name) recognized = true;
    if (!recognized) {
      error = "unknown option \"" + key + "\"";
      return false;
    }
  }
  if (!read_bool(*options, "base", out.base, error)) return false;
  if (!read_bool(*options, "permissive", out.permissive, error)) return false;
  if (!read_bool(*options, "cross_group", out.cross_group, error))
    return false;
  if (!read_bool(*options, "use_dataflow", out.use_dataflow, error))
    return false;
  if (!read_count(*options, "depth", out.depth, error)) return false;
  if (!read_count(*options, "max_assign", out.max_assign, error)) return false;
  if (!read_count(*options, "max_errors", out.max_errors, error)) return false;
  if (!read_count(*options, "timeout_ms", out.timeout_ms, error)) return false;
  if (const JsonValue* degrade = options->find("degrade")) {
    if (degrade->kind != JsonValue::Kind::kString) {
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
  JsonValue root;
  JsonParser parser(line);
  if (!parser.parse(root)) {
    out.error = parser.error();
    return out;
  }
  if (root.kind != JsonValue::Kind::kObject) {
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
  if (const JsonValue* designs = root.find("designs")) {
    if (designs->kind != JsonValue::Kind::kArray) {
      out.error = "\"designs\" must be an array of strings";
      return out;
    }
    for (const JsonValue& entry : designs->array) {
      if (entry.kind != JsonValue::Kind::kString) {
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
  if (o.base) add(std::string("\"base\":") + (*o.base ? "true" : "false"));
  if (o.permissive)
    add(std::string("\"permissive\":") + (*o.permissive ? "true" : "false"));
  if (o.cross_group)
    add(std::string("\"cross_group\":") + (*o.cross_group ? "true" : "false"));
  if (o.use_dataflow)
    add(std::string("\"use_dataflow\":") +
        (*o.use_dataflow ? "true" : "false"));
  if (o.depth) add("\"depth\":" + std::to_string(*o.depth));
  if (o.max_assign) add("\"max_assign\":" + std::to_string(*o.max_assign));
  if (o.max_errors) add("\"max_errors\":" + std::to_string(*o.max_errors));
  if (o.timeout_ms) add("\"timeout_ms\":" + std::to_string(*o.timeout_ms));
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
  JsonValue root;
  JsonParser parser(line);
  if (!parser.parse(root)) {
    out.error = parser.error();
    return out;
  }
  if (root.kind != JsonValue::Kind::kObject) {
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
  if (const JsonValue* result = root.find("result"))
    response.result = line.substr(result->begin, result->end - result->begin);
  if (const JsonValue* diagnostics = root.find("diagnostics"))
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
  // QoS clamp: the client's budget never exceeds the server ceiling, and an
  // omitted (or explicit 0 = "unlimited") budget inherits the ceiling.
  const auto ceiling = config_.max_timeout;
  std::chrono::milliseconds budget = ceiling;
  if (options.timeout_ms && *options.timeout_ms > 0) {
    budget = std::chrono::milliseconds(*options.timeout_ms);
    if (ceiling.count() > 0 && budget > ceiling) budget = ceiling;
  }
  config.exec.timeout = budget;
  if (options.base) config.use_baseline = *options.base;
  if (options.permissive) config.parse.permissive = *options.permissive;
  if (options.cross_group)
    config.wordrec.cross_group_checking = *options.cross_group;
  if (options.use_dataflow)
    config.wordrec.use_dataflow = *options.use_dataflow;
  if (options.depth) config.wordrec.cone_depth = *options.depth;
  if (options.max_assign)
    config.wordrec.max_simultaneous_assignments = *options.max_assign;
  if (options.degrade) config.exec.degrade = *options.degrade;
  return config;
}

void Executor::record(Status status) {
  by_status_[static_cast<std::size_t>(status)].fetch_add(
      1, std::memory_order_relaxed);
  perf::Profiler::global().count("serve.requests", 1);
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
  config.exec.cancellable = true;

  diag::Diagnostics diags;
  diags.set_max_errors(request.options.max_errors.value_or(
      diag::Diagnostics::kDefaultMaxErrors));

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
        options.max_errors = diags.max_errors();
        options.retries = config_.entry_retries;
        options.retry_backoff = config_.entry_retry_backoff;
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
        options.max_errors = diags.max_errors();
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

        if (request.op == Op::kIdentify) {
          // Byte-identical to `netrev identify <design> --json`.
          response.result = session.identify_json(design);
          if (!config.use_baseline) {
            const auto result = session.identify(design);  // cache hit
            if (result->degraded()) {
              response.status = Status::kDegraded;
              wordrec::report_degradation(*result, diags);
            }
          }
          break;
        }

        if (request.op == Op::kLift) {
          // Byte-identical to `netrev lift <design>`.
          response.result = session.lift_json(design);
          if (!config.use_baseline) {
            const auto result = session.identify(design);  // cache hit
            if (result->degraded()) {
              response.status = Status::kDegraded;
              wordrec::report_degradation(*result, diags);
            }
          }
          break;
        }

        // evaluate — byte-identical to `netrev evaluate <design> --json`.
        const auto reference = session.reference(design);
        if (reference->words.empty())
          throw std::runtime_error(
              "evaluate: no reference words (flop output names carry no "
              "indices)");
        const wordrec::WordSet words = [&] {
          if (config.use_baseline) return *session.identify_baseline(design);
          const auto result = session.identify(design);
          if (result->degraded()) {
            response.status = Status::kDegraded;
            wordrec::report_degradation(*result, diags);
          }
          return result->words;
        }();
        const eval::Diagnosis diagnosis =
            eval::diagnose(design.nl(), words, *reference);
        const auto health = session.analyze(design);
        response.result = eval::evaluate_doc_to_json(
            eval::evaluation_to_json(diagnosis.summary, reference->words),
            eval::analysis_to_json(design.nl(), *health));
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
