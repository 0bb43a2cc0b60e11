// Table-driven CLI option parsing.
//
// Every flag netrev accepts is declared exactly once in flag_table(), and
// every subcommand in command_table() lists which flags apply to it.  The
// parser, the per-command applicability check, and usage() are all generated
// from the same two tables, so help text cannot drift from what the parser
// actually accepts.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/diagnostics.h"
#include "pipeline/protocol.h"

namespace netrev {
class Session;
}

namespace netrev::cli {

enum class FlagId {
  // Command-specific flags.
  kBase,
  kJson,
  kCrossGroup,
  kUseDataflow,
  kTrace,
  kDepth,
  kMaxAssign,
  kOutput,
  kAssign,
  kRules,
  kFailOn,
  kListRules,
  kKeepGoing,
  kNoVerify,
  kVectors,
  kResume,
  kRetries,
  kCompactJournal,
  // serve / client flags.
  kListen,
  kSocket,
  kConnect,
  kRequestId,
  kMaxQueue,
  kMaxInflight,
  kIdleTimeout,
  kDrainTimeout,
  kMaxRequestBytes,
  // Process isolation (batch / serve).
  kIsolate,
  kWorkerMem,
  kWorkerCpu,
  kWorkerWall,
  kCrashRetries,
  // Global flags (valid for every command).
  kTimeout,
  kStageTimeout,
  kDegrade,
  kCacheEntries,
  kJobs,
  kProfile,
  kPermissive,
  kDiagJson,
  kMaxErrors,
  kVersion,
};

struct FlagSpec {
  FlagId id;
  const char* name;        // "--base"
  const char* alias;       // short form ("-j") or nullptr
  bool takes_value;        // expects "--flag value" or "--flag=value"
  const char* value_name;  // metavariable for usage(), e.g. "N"
  const char* help;        // one-line description for usage()
  bool global;             // applies to every command
};

struct CommandSpec {
  const char* name;
  const char* args;     // positional signature, e.g. "<design>"
  const char* summary;  // one-line description for usage()
  std::vector<FlagId> flags;  // applicable command-specific flags
  // Internal commands (the supervisor's "worker" mode) parse normally but
  // are omitted from usage().
  bool hidden = false;
};

const std::vector<FlagSpec>& flag_table();
const std::vector<CommandSpec>& command_table();
// nullptr when `name` is not a known subcommand.
const CommandSpec* find_command(const std::string& name);

// The parse result every subcommand consumes.
struct ParsedFlags {
  std::vector<std::string> positional;
  // The run settings (--base, --permissive, --cross-group, --use-dataflow,
  // --depth, --max-assign, --max-errors, --timeout, --degrade); unset when
  // the flag is absent.
  pipeline::protocol::RequestOptions options;
  bool json = false;
  bool trace = false;
  bool diag_json = false;
  bool profile = false;       // --profile: print the stage tree (text)
  bool profile_json = false;  // --profile=json: print it as JSON
  bool keep_going = false;    // batch --keep-going
  bool no_verify = false;     // lift --no-verify: skip equivalence check
  bool version = false;       // --version: print version and exit
  std::optional<std::size_t> jobs;
  std::optional<std::size_t> vectors;  // lift --vectors: verification samples
  std::optional<std::string> output;
  std::optional<std::size_t> stage_timeout_ms;  // --stage-timeout (per stage)
  std::optional<std::size_t> cache_entries;     // --cache-entries bound
  std::optional<std::string> resume;            // batch --resume journal path
  std::optional<std::size_t> retries;           // batch --retries
  bool compact_journal = false;     // batch --compact-journal (needs --resume)
  std::optional<std::string> listen;       // serve --listen HOST:PORT
  std::optional<std::string> socket_path;  // serve/client --socket PATH
  std::optional<std::string> connect;      // client --connect HOST:PORT
  std::optional<std::string> request_id;   // client --id STR
  std::optional<std::size_t> max_queue;         // serve --max-queue
  std::optional<std::size_t> max_inflight;      // serve --max-inflight
  std::optional<std::size_t> idle_timeout_ms;   // serve --idle-timeout
  std::optional<std::size_t> drain_timeout_ms;  // serve --drain-timeout
  std::optional<std::size_t> max_request_bytes;  // serve --max-request-bytes
  bool isolate = false;  // batch/serve --isolate[=N]: supervised workers
  std::optional<std::size_t> isolate_workers;  // the =N (pool size)
  std::optional<std::size_t> worker_mem_mb;    // --worker-mem (RLIMIT_AS MiB)
  std::optional<std::size_t> worker_cpu_s;     // --worker-cpu (RLIMIT_CPU s)
  std::optional<std::size_t> worker_wall_ms;   // --worker-wall watchdog
  std::optional<std::size_t> crash_retries;    // batch --crash-retries
  std::vector<std::pair<std::string, bool>> assignments;
  std::vector<std::string> rules;         // lint --rules a,b,c
  std::optional<diag::Severity> fail_on;  // lint --fail-on=...
  bool list_rules = false;                // lint --list-rules
  // Non-owning; set by run_cli before dispatch.
  diag::Diagnostics* diags = nullptr;
  Session* session = nullptr;
};

// Parses args[start..] against `command`'s flag set.  Throws
// std::invalid_argument on unknown flags, missing values, malformed values,
// and flags that are not valid for this command.
ParsedFlags parse_flags(const CommandSpec& command,
                        const std::vector<std::string>& args,
                        std::size_t start);

// Generated from flag_table() + command_table().
std::string usage();

}  // namespace netrev::cli
