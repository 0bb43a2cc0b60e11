#include "cli/options.h"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/exit_code.h"
#include "common/text.h"
#include "exec/degrade.h"

namespace netrev::cli {

namespace {

// The one numeric-value parser every counted flag routes through.  std::stoul
// would silently wrap "-5" into a huge count and accept trailing junk
// ("3abc"); this accepts exactly non-negative decimal integers and names the
// offending flag in the diagnostic.
std::size_t parse_count(const FlagSpec& spec, const std::string& value) {
  const auto reject = [&](const char* why) -> std::size_t {
    throw std::invalid_argument(std::string(spec.name) + " expects a " +
                                "non-negative integer " + spec.value_name +
                                ", got '" + value + "' (" + why + ")");
  };
  if (value.empty()) return reject("empty value");
  std::size_t out = 0;
  for (const char c : value) {
    if (c < '0' || c > '9')
      return reject(c == '-' ? "negative values are not allowed"
                             : "not a decimal digit");
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (out > (std::numeric_limits<std::size_t>::max() - digit) / 10)
      return reject("value out of range");
    out = out * 10 + digit;
  }
  return out;
}

diag::Severity parse_fail_on(const std::string& value) {
  if (value == "note") return diag::Severity::kNote;
  if (value == "warning") return diag::Severity::kWarning;
  if (value == "error") return diag::Severity::kError;
  throw std::invalid_argument(
      "--fail-on expects note, warning, or error; got '" + value + "'");
}

const FlagSpec& spec_for(FlagId id) {
  for (const FlagSpec& spec : flag_table())
    if (spec.id == id) return spec;
  throw std::logic_error("flag missing from flag_table()");
}

bool command_accepts(const CommandSpec& command, FlagId id) {
  for (FlagId allowed : command.flags)
    if (allowed == id) return true;
  return false;
}

void apply_flag(ParsedFlags& flags, const FlagSpec& spec,
                const std::string& value) {
  switch (spec.id) {
    case FlagId::kBase:
      flags.options.base = true;
      break;
    case FlagId::kJson:
      flags.json = true;
      break;
    case FlagId::kCrossGroup:
      flags.options.cross_group = true;
      break;
    case FlagId::kUseDataflow:
      flags.options.use_dataflow = true;
      break;
    case FlagId::kTrace:
      flags.trace = true;
      break;
    case FlagId::kDepth:
      flags.options.depth = parse_count(spec, value);
      break;
    case FlagId::kMaxAssign:
      flags.options.max_assign = parse_count(spec, value);
      break;
    case FlagId::kOutput:
      flags.output = value;
      break;
    case FlagId::kAssign: {
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq + 2 != value.size() ||
          (value[eq + 1] != '0' && value[eq + 1] != '1'))
        throw std::invalid_argument("--assign expects NET=0 or NET=1, got '" +
                                    value + "'");
      flags.assignments.emplace_back(value.substr(0, eq), value[eq + 1] == '1');
      break;
    }
    case FlagId::kRules:
      for (const std::string& id : split(value, ','))
        if (!trim(id).empty()) flags.rules.emplace_back(trim(id));
      break;
    case FlagId::kFailOn:
      flags.fail_on = parse_fail_on(value);
      break;
    case FlagId::kListRules:
      flags.list_rules = true;
      break;
    case FlagId::kKeepGoing:
      flags.keep_going = true;
      break;
    case FlagId::kNoVerify:
      flags.no_verify = true;
      break;
    case FlagId::kVectors:
      flags.vectors = parse_count(spec, value);
      if (*flags.vectors == 0)
        throw std::invalid_argument("--vectors expects a positive sample count");
      break;
    case FlagId::kResume:
      flags.resume = value;
      break;
    case FlagId::kRetries:
      flags.retries = parse_count(spec, value);
      break;
    case FlagId::kCompactJournal:
      flags.compact_journal = true;
      break;
    case FlagId::kListen:
      flags.listen = value;
      break;
    case FlagId::kSocket:
      flags.socket_path = value;
      break;
    case FlagId::kConnect:
      flags.connect = value;
      break;
    case FlagId::kRequestId:
      flags.request_id = value;
      break;
    case FlagId::kMaxQueue:
      flags.max_queue = parse_count(spec, value);
      break;
    case FlagId::kMaxInflight:
      flags.max_inflight = parse_count(spec, value);
      if (*flags.max_inflight == 0)
        throw std::invalid_argument(
            "--max-inflight expects a positive worker count");
      break;
    case FlagId::kIdleTimeout:
      flags.idle_timeout_ms = parse_count(spec, value);
      break;
    case FlagId::kDrainTimeout:
      flags.drain_timeout_ms = parse_count(spec, value);
      break;
    case FlagId::kMaxRequestBytes:
      flags.max_request_bytes = parse_count(spec, value);
      if (*flags.max_request_bytes == 0)
        throw std::invalid_argument(
            "--max-request-bytes expects a positive byte count");
      break;
    case FlagId::kIsolate:
      // Bare --isolate; --isolate=N is special-cased in parse_flags (the
      // only other optional-value flag besides --profile).
      flags.isolate = true;
      break;
    case FlagId::kWorkerMem:
      flags.worker_mem_mb = parse_count(spec, value);
      break;
    case FlagId::kWorkerCpu:
      flags.worker_cpu_s = parse_count(spec, value);
      break;
    case FlagId::kWorkerWall:
      flags.worker_wall_ms = parse_count(spec, value);
      break;
    case FlagId::kCrashRetries:
      flags.crash_retries = parse_count(spec, value);
      if (*flags.crash_retries == 0)
        throw std::invalid_argument(
            "--crash-retries expects a positive attempt count");
      break;
    case FlagId::kTimeout:
      flags.options.timeout_ms = parse_count(spec, value);
      break;
    case FlagId::kStageTimeout:
      flags.stage_timeout_ms = parse_count(spec, value);
      break;
    case FlagId::kDegrade: {
      const auto policy = exec::parse_degrade_policy(value);
      if (!policy)
        throw std::invalid_argument(
            "--degrade expects off, full, depth, baseline, or groups; got '" +
            value + "'");
      flags.options.degrade = *policy;
      break;
    }
    case FlagId::kCacheEntries:
      flags.cache_entries = parse_count(spec, value);
      break;
    case FlagId::kJobs:
      flags.jobs = parse_count(spec, value);
      if (*flags.jobs == 0)
        throw std::invalid_argument("--jobs expects a positive thread count");
      break;
    case FlagId::kProfile:
      flags.profile = true;
      break;
    case FlagId::kPermissive:
      flags.options.permissive = true;
      break;
    case FlagId::kDiagJson:
      flags.diag_json = true;
      break;
    case FlagId::kMaxErrors:
      flags.options.max_errors = parse_count(spec, value);
      break;
    case FlagId::kVersion:
      flags.version = true;
      break;
  }
}

}  // namespace

const std::vector<FlagSpec>& flag_table() {
  static const std::vector<FlagSpec> table = {
      {FlagId::kBase, "--base", nullptr, false, nullptr,
       "use the shape-hashing baseline technique", false},
      {FlagId::kJson, "--json", nullptr, false, nullptr,
       "machine-readable JSON output", false},
      {FlagId::kCrossGroup, "--cross-group", nullptr, false, nullptr,
       "enable cross-group checking", false},
      {FlagId::kUseDataflow, "--use-dataflow", nullptr, false, nullptr,
       "prune provably-constant nets from control-signal candidates via "
       "ternary dataflow (conservative: only removes proven constants)",
       false},
      {FlagId::kTrace, "--trace", nullptr, false, nullptr,
       "narrate identification decisions", false},
      {FlagId::kDepth, "--depth", nullptr, true, "N",
       "fan-in cone depth bound", false},
      {FlagId::kMaxAssign, "--max-assign", nullptr, true, "N",
       "max simultaneous control assignments", false},
      {FlagId::kOutput, "--output", "-o", true, "PATH",
       "write output to PATH", false},
      {FlagId::kAssign, "--assign", nullptr, true, "NET=V",
       "assign NET=0|1 (repeatable)", false},
      {FlagId::kRules, "--rules", nullptr, true, "a,b",
       "comma-separated lint rule ids", false},
      {FlagId::kFailOn, "--fail-on", nullptr, true, "SEV",
       "lint failure threshold: note|warning|error", false},
      {FlagId::kListRules, "--list-rules", nullptr, false, nullptr,
       "print the built-in lint rule table (id, severity, category, "
       "description) and exit",
       false},
      {FlagId::kKeepGoing, "--keep-going", nullptr, false, nullptr,
       "run every batch entry despite failures", false},
      {FlagId::kNoVerify, "--no-verify", nullptr, false, nullptr,
       "skip the bit-blast simulation equivalence check (verdict "
       "'unchecked')",
       false},
      {FlagId::kVectors, "--vectors", nullptr, true, "N",
       "random vectors per lifted op for the equivalence check (default 64)",
       false},
      {FlagId::kResume, "--resume", nullptr, true, "PATH",
       "append completed entries to the journal at PATH and skip entries "
       "already recorded there (crash-safe resume)",
       false},
      {FlagId::kRetries, "--retries", nullptr, true, "N",
       "retry transient file-read failures up to N times with backoff",
       false},
      {FlagId::kCompactJournal, "--compact-journal", nullptr, false, nullptr,
       "after the run, rewrite the --resume journal dropping superseded "
       "duplicate entries (atomic temp+rename)",
       false},
      {FlagId::kListen, "--listen", nullptr, true, "HOST:PORT",
       "serve on this TCP endpoint (port 0 = ephemeral, printed on stdout; "
       "default 127.0.0.1:0)",
       false},
      {FlagId::kSocket, "--socket", nullptr, true, "PATH",
       "serve on / connect to a Unix domain socket instead of TCP", false},
      {FlagId::kConnect, "--connect", nullptr, true, "HOST:PORT",
       "connect to a running netrev serve on this TCP endpoint", false},
      {FlagId::kRequestId, "--id", nullptr, true, "STR",
       "request id echoed in the response (default: server-assigned)", false},
      {FlagId::kMaxQueue, "--max-queue", nullptr, true, "N",
       "admitted-but-not-started request bound; a full queue sheds new "
       "requests with status 'overloaded' (default 16)",
       false},
      {FlagId::kMaxInflight, "--max-inflight", nullptr, true, "N",
       "concurrently executing request bound (default 4)", false},
      {FlagId::kIdleTimeout, "--idle-timeout", nullptr, true, "MS",
       "close connections idle longer than this (0 = never; default 30000)",
       false},
      {FlagId::kDrainTimeout, "--drain-timeout", nullptr, true, "MS",
       "on SIGTERM/SIGINT, give in-flight requests this long before "
       "cancelling them (default 5000)",
       false},
      {FlagId::kMaxRequestBytes, "--max-request-bytes", nullptr, true, "N",
       "per-connection bound on one unframed request line; an over-limit "
       "frame is answered 'bad_request' and the connection closed (default "
       "8388608)",
       false},
      {FlagId::kIsolate, "--isolate", nullptr, false, nullptr,
       "run entries/requests in supervised worker processes (--isolate=N "
       "sets the pool size, default 2); a crashed worker quarantines its "
       "entry instead of taking down the run",
       false},
      {FlagId::kWorkerMem, "--worker-mem", nullptr, true, "MB",
       "per-worker address-space limit in MiB (RLIMIT_AS; 0 = inherit)",
       false},
      {FlagId::kWorkerCpu, "--worker-cpu", nullptr, true, "S",
       "per-worker CPU-time limit in seconds (RLIMIT_CPU; 0 = inherit)",
       false},
      {FlagId::kWorkerWall, "--worker-wall", nullptr, true, "MS",
       "per-round-trip wall-clock watchdog: a worker silent this long is "
       "SIGKILLed and the entry/request reports a watchdog crash (0 = off)",
       false},
      {FlagId::kCrashRetries, "--crash-retries", nullptr, true, "N",
       "attempts before a crashing entry is quarantined as 'crashed' "
       "(default 2 = one retry on a fresh worker)",
       false},
      {FlagId::kTimeout, "--timeout", nullptr, true, "MS",
       "whole-run wall-clock budget in milliseconds (0 = unlimited)", true},
      {FlagId::kStageTimeout, "--stage-timeout", nullptr, true, "MS",
       "per-stage wall-clock budget in milliseconds (0 = unlimited)", true},
      {FlagId::kDegrade, "--degrade", nullptr, true, "LVL",
       "degradation floor when a deadline or work budget trips: off|full|"
       "depth|baseline|groups (default groups)",
       true},
      {FlagId::kCacheEntries, "--cache-entries", nullptr, true, "N",
       "artifact cache capacity in entries (0 disables caching)", true},
      {FlagId::kJobs, "--jobs", "-j", true, "N",
       "thread count for the parallel pipeline stages (default: NETREV_JOBS "
       "env var, else all cores; results are identical at any value)",
       true},
      {FlagId::kProfile, "--profile", nullptr, false, nullptr,
       "print the stage-profile tree after the command (--profile=json for "
       "JSON on the last line)",
       true},
      {FlagId::kPermissive, "--permissive", nullptr, false, nullptr,
       "recover from parse errors and repair the netlist", true},
      {FlagId::kDiagJson, "--diag-json", nullptr, false, nullptr,
       "print collected diagnostics as JSON", true},
      {FlagId::kMaxErrors, "--max-errors", nullptr, true, "N",
       "stop recovery after N errors", true},
      {FlagId::kVersion, "--version", nullptr, false, nullptr,
       "print the netrev version and exit", true},
  };
  return table;
}

const std::vector<CommandSpec>& command_table() {
  static const std::vector<CommandSpec> table = {
      {"stats", "<design>", "design statistics", {}},
      {"reference", "<design>", "golden reference words", {}},
      {"identify", "<design>", "control-signal word identification",
       {FlagId::kBase, FlagId::kJson, FlagId::kTrace, FlagId::kDepth,
        FlagId::kMaxAssign, FlagId::kCrossGroup, FlagId::kUseDataflow,
        FlagId::kOutput}},
      {"lift", "<design>",
       "lift identified words to a typed word-level model (schema-versioned "
       "JSON); each op is bit-blasted back to gates and checked for "
       "simulation equivalence unless --no-verify",
       {FlagId::kBase, FlagId::kDepth, FlagId::kMaxAssign, FlagId::kCrossGroup,
        FlagId::kUseDataflow, FlagId::kNoVerify, FlagId::kVectors,
        FlagId::kOutput}},
      {"reduce", "<design>", "apply control assignments and reduce",
       {FlagId::kAssign, FlagId::kOutput}},
      {"evaluate", "<design>", "compare identified words vs reference",
       {FlagId::kBase, FlagId::kJson, FlagId::kDepth, FlagId::kMaxAssign,
        FlagId::kCrossGroup, FlagId::kUseDataflow}},
      {"lint", "<design>",
       "static-analysis findings; exit 1 at/above --fail-on (default error); "
       "files always load permissively",
       {FlagId::kRules, FlagId::kFailOn, FlagId::kListRules}},
      {"propagate", "<design>", "word propagation",
       {FlagId::kDepth, FlagId::kMaxAssign, FlagId::kCrossGroup}},
      {"batch", "<spec> ...",
       "run parse/lint/identify/lift/evaluate over many designs (specs: "
       "designs, globs, or manifest files); artifacts are cached across "
       "entries",
       {FlagId::kJson, FlagId::kKeepGoing, FlagId::kBase, FlagId::kDepth,
        FlagId::kMaxAssign, FlagId::kCrossGroup, FlagId::kUseDataflow,
        FlagId::kResume, FlagId::kRetries, FlagId::kOutput,
        FlagId::kCompactJournal, FlagId::kIsolate, FlagId::kWorkerMem,
        FlagId::kWorkerCpu, FlagId::kWorkerWall, FlagId::kCrashRetries}},
      {"serve", "",
       "long-lived analysis daemon: newline-delimited JSON requests over TCP "
       "or a Unix socket, bounded admission queue, graceful drain on "
       "SIGTERM/SIGINT (exit 6 drained, 7 drain timeout)",
       {FlagId::kListen, FlagId::kSocket, FlagId::kMaxQueue,
        FlagId::kMaxInflight, FlagId::kIdleTimeout, FlagId::kDrainTimeout,
        FlagId::kMaxRequestBytes, FlagId::kIsolate, FlagId::kWorkerMem,
        FlagId::kWorkerCpu, FlagId::kWorkerWall, FlagId::kBase, FlagId::kDepth,
        FlagId::kMaxAssign, FlagId::kCrossGroup, FlagId::kUseDataflow}},
      {"client", "<op> [design ...]",
       "send one request (ping|stats|load|lint|identify|evaluate|batch|lift) "
       "to a running netrev serve and print the JSON result",
       {FlagId::kConnect, FlagId::kSocket, FlagId::kRequestId, FlagId::kBase,
        FlagId::kDepth, FlagId::kMaxAssign, FlagId::kCrossGroup,
        FlagId::kUseDataflow}},
      {"generate", "<bXXs>", "emit family benchmark", {FlagId::kOutput}},
      {"scan", "<design>", "insert scan chain", {FlagId::kOutput}},
      {"dot", "<design>", "GraphViz with identified words highlighted",
       {FlagId::kDepth, FlagId::kOutput}},
      {"table", "[bXXs ...]", "Table 1 rows",
       {FlagId::kJson, FlagId::kDepth, FlagId::kMaxAssign, FlagId::kCrossGroup,
        FlagId::kUseDataflow}},
      // Internal: one supervised worker process (spawned by --isolate runs;
      // speaks the NDJSON protocol on stdin/stdout).  Its run settings come
      // with each request; its argv carries process settings only.
      {"worker", "",
       "(internal) supervised worker for --isolate: NDJSON requests on "
       "stdin, responses on stdout",
       {FlagId::kRetries},
       /*hidden=*/true},
  };
  return table;
}

const CommandSpec* find_command(const std::string& name) {
  for (const CommandSpec& command : command_table())
    if (name == command.name) return &command;
  return nullptr;
}

ParsedFlags parse_flags(const CommandSpec& command,
                        const std::vector<std::string>& args,
                        std::size_t start) {
  ParsedFlags flags;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      flags.positional.push_back(arg);
      continue;
    }
    // The two flags with an optional value.
    if (arg == "--profile=json") {
      flags.profile = true;
      flags.profile_json = true;
      continue;
    }
    if (arg.rfind("--isolate=", 0) == 0) {
      // The declared spec is valueless (bare --isolate); parse_count's
      // diagnostics need a value name, so give this copy one.
      FlagSpec spec = spec_for(FlagId::kIsolate);
      spec.value_name = "N";
      if (!command_accepts(command, FlagId::kIsolate))
        throw std::invalid_argument(std::string(spec.name) +
                                    " is not valid for '" +
                                    std::string(command.name) + "'");
      flags.isolate = true;
      flags.isolate_workers =
          parse_count(spec, arg.substr(std::string("--isolate=").size()));
      if (*flags.isolate_workers == 0)
        throw std::invalid_argument(
            "--isolate expects a positive worker count");
      continue;
    }
    const auto eq = arg.find('=');
    const std::string head = arg.substr(0, eq);
    std::optional<std::string> inline_value;
    if (eq != std::string::npos) inline_value = arg.substr(eq + 1);

    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : flag_table()) {
      if (head == candidate.name ||
          (candidate.alias != nullptr && head == candidate.alias)) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) throw std::invalid_argument("unknown flag: " + arg);
    if (!spec->global && !command_accepts(command, spec->id))
      throw std::invalid_argument(std::string(spec->name) +
                                  " is not valid for '" + command.name + "'");

    std::string value;
    if (spec->takes_value) {
      if (inline_value) {
        value = *inline_value;
      } else {
        if (i + 1 >= args.size())
          throw std::invalid_argument(std::string(spec->name) +
                                      " needs a value");
        value = args[++i];
      }
    } else if (inline_value) {
      throw std::invalid_argument(std::string(spec->name) +
                                  " does not take a value");
    }
    apply_flag(flags, *spec, value);
  }
  // A fan-in cone of depth 0 holds no gate to hash.  dot reads --depth as the
  // depth of the cones it draws (0 = whole cones); every other command that
  // takes --depth identifies words with it.
  const std::string_view name = command.name;
  if (flags.options.depth == 0u && name != "dot")
    throw std::invalid_argument("--depth expects a positive cone depth");
  return flags;
}

std::string usage() {
  std::string out = "usage: netrev <command> [args]\n";
  for (const CommandSpec& command : command_table()) {
    if (command.hidden) continue;
    std::string line = "  ";
    line += command.name;
    if (command.args[0] != '\0') {
      line += ' ';
      line += command.args;
    }
    for (FlagId id : command.flags) {
      const FlagSpec& spec = spec_for(id);
      line += " [";
      line += spec.name;
      if (spec.takes_value) {
        line += ' ';
        line += spec.value_name;
      }
      line += ']';
    }
    out += line + "\n";
    out += "      ";
    out += command.summary;
    out += "\n";
  }
  out += "(<design> = family name, .bench file, or Verilog file)\n";
  out += "global flags:\n";
  for (const FlagSpec& spec : flag_table()) {
    if (!spec.global) continue;
    std::string line = "  ";
    line += spec.name;
    if (spec.takes_value) {
      line += ' ';
      line += spec.value_name;
    }
    if (spec.alias != nullptr) {
      line += " | ";
      line += spec.alias;
      if (spec.takes_value) {
        line += ' ';
        line += spec.value_name;
      }
    }
    out += line + "\n";
    out += "      ";
    out += spec.help;
    out += "\n";
  }
  // Generated from the ExitCode enum so the help text cannot drift from
  // what run_cli actually returns.
  out += "exit codes:";
  bool first = true;
  for (const ExitCode code :
       {ExitCode::kOk, ExitCode::kError, ExitCode::kUsage,
        ExitCode::kRecoveredWithWarnings, ExitCode::kUnusableInput,
        ExitCode::kDeadline, ExitCode::kDrained, ExitCode::kDrainTimeout,
        ExitCode::kOverloaded, ExitCode::kWorkerCrashed,
        ExitCode::kInterrupted}) {
    out += first ? " " : (code == ExitCode::kDrained ? ",\n  " : ", ");
    out += std::to_string(exit_code(code));
    out += ' ';
    out += exit_code_name(code);
    first = false;
  }
  out += '\n';
  return out;
}

}  // namespace netrev::cli
