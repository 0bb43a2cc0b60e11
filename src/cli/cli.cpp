#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyzer.h"
#include "cli/options.h"
#include "common/atomic_file.h"
#include "common/diagnostics.h"
#include "common/exit_code.h"
#include "common/thread_pool.h"
#include "common/version.h"
#include "exec/cancel.h"
#include "exec/degrade.h"
#include "eval/diagnose.h"
#include "eval/metrics.h"
#include "eval/reference.h"
#include "eval/report.h"
#include "eval/table.h"
#include "itc/family.h"
#include "netlist/dot.h"
#include "netlist/stats.h"
#include "netlist/validate.h"
#include "parser/bench_parser.h"
#include "parser/verilog_writer.h"
#include "perf/profile.h"
#include "pipeline/batch.h"
#include "pipeline/client.h"
#include "pipeline/journal.h"
#include "pipeline/manifest.h"
#include "pipeline/serve.h"
#include "pipeline/session.h"
#include "pipeline/supervisor.h"
#include "rtl/scan.h"
#include "wordrec/degrade.h"
#include "wordrec/funcheck.h"
#include "wordrec/identify.h"
#include "wordrec/propagation.h"
#include "wordrec/reduce.h"
#include "wordrec/trace.h"

namespace netrev::cli {

namespace {

using netlist::Netlist;

// All per-stage knobs a subcommand needs, consolidated from the parsed
// flags into the one RunConfig the Session is constructed with.
RunConfig config_from(const ParsedFlags& flags) {
  RunConfig config;
  config.parse.permissive = flags.permissive;
  if (flags.depth) config.wordrec.cone_depth = *flags.depth;
  if (flags.max_assign)
    config.wordrec.max_simultaneous_assignments = *flags.max_assign;
  config.wordrec.cross_group_checking = flags.cross_group;
  config.wordrec.use_dataflow = flags.use_dataflow;
  config.analysis.enabled_rules = flags.rules;
  if (flags.no_verify) config.lift.verify = false;
  if (flags.vectors) config.lift.verify_vectors = *flags.vectors;
  config.use_baseline = flags.base;
  if (flags.timeout_ms)
    config.exec.timeout = std::chrono::milliseconds(*flags.timeout_ms);
  if (flags.stage_timeout_ms)
    config.exec.stage_timeout =
        std::chrono::milliseconds(*flags.stage_timeout_ms);
  if (flags.degrade) config.exec.degrade = *flags.degrade;
  if (flags.cache_entries) config.cache_entries = *flags.cache_entries;
  return config;
}

// --- signal handlers -> atomic flags ----------------------------------------
// A handler runs on whichever thread the kernel picks, so the flag it stores
// through is published in an atomic slot, and a guard that retires a flag
// waits out any handler still storing through it (the flag's owner may free
// it as soon as the guard is gone).  Counting handlers in flight is
// lock-free, hence async-signal-safe.

std::atomic<int> g_handlers_running{0};
static_assert(std::atomic<int>::is_always_lock_free &&
              std::atomic<std::atomic<bool>*>::is_always_lock_free);

void store_through(const std::atomic<std::atomic<bool>*>& slot) {
  g_handlers_running.fetch_add(1);
  if (std::atomic<bool>* flag = slot.load())
    flag->store(true, std::memory_order_relaxed);
  g_handlers_running.fetch_sub(1);
}

// Sets `slot` to `flag`, then returns once no handler can still hold the
// flag it replaced.
void retire_flag(std::atomic<std::atomic<bool>*>& slot,
                 std::atomic<bool>* flag) {
  slot.store(flag);
  while (g_handlers_running.load() != 0) std::this_thread::yield();
}

// --- SIGINT -> cancel token ------------------------------------------------
// The handler may only touch async-signal-safe state, so it stores through
// the token's raw atomic flag; everything else (journal flush, exit code
// 130) happens on the normal path once the in-flight entries observe the
// flag and unwind.

std::atomic<std::atomic<bool>*> g_sigint_flag{nullptr};

void handle_sigint(int) { store_through(g_sigint_flag); }

class SigintGuard {
 public:
  explicit SigintGuard(exec::CancelToken& token)
      : previous_flag_(g_sigint_flag.load()) {
    g_sigint_flag.store(token.flag());
    previous_ = std::signal(SIGINT, handle_sigint);
  }
  ~SigintGuard() {
    std::signal(SIGINT, previous_);
    // Restore (not null) so guards nest: run_cli arms every command, and
    // cmd_batch layers its own token over it for the batch window.
    retire_flag(g_sigint_flag, previous_flag_);
  }
  SigintGuard(const SigintGuard&) = delete;
  SigintGuard& operator=(const SigintGuard&) = delete;

 private:
  std::atomic<bool>* previous_flag_;
  void (*previous_)(int) = nullptr;
};

// --- SIGTERM/SIGINT -> serve drain -----------------------------------------
// serve turns both signals into a graceful drain: the handler stores into
// the server's drain flag (async-signal-safe), and the accept loop observes
// it within one poll tick.

std::atomic<std::atomic<bool>*> g_drain_flag{nullptr};

void handle_drain_signal(int) { store_through(g_drain_flag); }

class DrainSignalGuard {
 public:
  explicit DrainSignalGuard(std::atomic<bool>* flag) {
    g_drain_flag.store(flag);
    previous_term_ = std::signal(SIGTERM, handle_drain_signal);
    previous_int_ = std::signal(SIGINT, handle_drain_signal);
  }
  ~DrainSignalGuard() {
    std::signal(SIGTERM, previous_term_);
    std::signal(SIGINT, previous_int_);
    retire_flag(g_drain_flag, nullptr);
  }
  DrainSignalGuard(const DrainSignalGuard&) = delete;
  DrainSignalGuard& operator=(const DrainSignalGuard&) = delete;

 private:
  void (*previous_term_)(int) = nullptr;
  void (*previous_int_)(int) = nullptr;
};

// --- worker pool construction ----------------------------------------------

// The argv tail worker children are spawned with: "worker" plus every flag
// that changes what an entry/request produces, so a worker's pipeline
// configuration matches its supervisor's exactly (the byte-identity
// contract of --isolate rests on this).
std::vector<std::string> worker_config_args(const ParsedFlags& flags) {
  std::vector<std::string> args = {"worker"};
  if (flags.base) args.emplace_back("--base");
  if (flags.permissive) args.emplace_back("--permissive");
  if (flags.cross_group) args.emplace_back("--cross-group");
  if (flags.use_dataflow) args.emplace_back("--use-dataflow");
  const auto add = [&args](const char* name, std::size_t value) {
    args.emplace_back(name);
    args.push_back(std::to_string(value));
  };
  if (flags.depth) add("--depth", *flags.depth);
  if (flags.max_assign) add("--max-assign", *flags.max_assign);
  if (flags.max_errors) add("--max-errors", *flags.max_errors);
  if (flags.timeout_ms) add("--timeout", *flags.timeout_ms);
  if (flags.stage_timeout_ms) add("--stage-timeout", *flags.stage_timeout_ms);
  if (flags.cache_entries) add("--cache-entries", *flags.cache_entries);
  if (flags.retries) add("--retries", *flags.retries);
  if (flags.jobs) add("--jobs", *flags.jobs);
  if (flags.degrade) {
    args.emplace_back("--degrade");
    args.emplace_back(flags.degrade->enabled
                          ? exec::degrade_level_name(flags.degrade->floor)
                          : "off");
  }
  return args;
}

pipeline::supervisor::PoolOptions pool_options_from(const ParsedFlags& flags) {
  pipeline::supervisor::PoolOptions options;
  options.args = worker_config_args(flags);
  if (flags.isolate_workers) options.workers = *flags.isolate_workers;
  if (flags.worker_mem_mb)
    options.limits.mem_bytes = *flags.worker_mem_mb << 20;
  if (flags.worker_cpu_s) options.limits.cpu_seconds = *flags.worker_cpu_s;
  if (flags.worker_wall_ms)
    options.wall_timeout = std::chrono::milliseconds(*flags.worker_wall_ms);
  return options;
}

// Loads a design through the session: family benchmark name, .bench file,
// or Verilog file.  Strict by default; --permissive recovers and repairs
// (see Session::load_netlist).
LoadedDesign load_design(const std::string& spec, const ParsedFlags& flags) {
  return flags.session->load_netlist(spec, flags.session->config().parse,
                                     *flags.diags);
}

void print_words(std::ostream& out, const Netlist& nl,
                 const wordrec::WordSet& words) {
  for (const wordrec::Word& word : words.words) {
    if (word.width() < 2) continue;
    out << "  [" << word.width() << " bits]";
    for (netlist::NetId bit : word.bits) out << ' ' << nl.net(bit).name;
    out << '\n';
  }
}

// --- subcommands -----------------------------------------------------------

int cmd_stats(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("stats: expected one design");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();
  out << nl.name() << ": " << netlist::compute_stats(nl).to_string() << '\n';
  const auto profile = netlist::compute_fanin_profile(nl);
  out << "max fanin " << profile.max_fanin << ", avg fanin "
      << profile.average_fanin << ", comb depth "
      << netlist::combinational_depth(nl) << '\n';
  const auto report = netlist::validate(nl);
  out << "validation: " << report.error_count() << " error(s), "
      << report.warning_count() << " warning(s)\n";
  return exit_code(report.ok() ? ExitCode::kOk : ExitCode::kError);
}

int cmd_reference(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("reference: expected one design");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();
  const auto extraction = flags.session->reference(design);
  out << extraction->words.size() << " reference word(s), "
      << extraction->indexed_flops << "/" << extraction->flop_count
      << " flops indexed, avg size " << extraction->average_word_size()
      << '\n';
  for (const auto& word : extraction->words) {
    out << "  " << word.register_name << " [" << word.width() << " bits]";
    for (netlist::NetId bit : word.bits) out << ' ' << nl.net(bit).name;
    out << '\n';
  }
  return 0;
}

int identify_body(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("identify: expected one design");
  if (flags.json && flags.trace)
    throw std::invalid_argument(
        "identify: --trace narrates the text report; drop --json");
  Session& session = *flags.session;
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();

  if (flags.json) {
    out << session.identify_json(design) << '\n';
    return 0;
  }
  wordrec::IdentifyTrace trace;
  if (flags.trace) session.config().wordrec.trace = &trace;
  const auto result = session.identify(design);
  session.config().wordrec.trace = nullptr;
  wordrec::report_degradation(*result, *flags.diags);
  if (flags.base) {
    out << "shape hashing found " << result->words.count_multibit()
        << " multi-bit word(s):\n";
    print_words(out, nl, result->words);
    return 0;
  }
  if (flags.trace) out << wordrec::render_trace(nl, trace);
  if (result->degraded())
    out << "note: degraded to '"
        << exec::degrade_level_name(result->degrade_level) << "' ("
        << result->degrade_reason << ")\n";
  out << "found " << result->words.count_multibit() << " multi-bit word(s), "
      << result->used_control_signals.size() << " control signal(s), "
      << result->stats.reduction_trials << " reduction trial(s):\n";
  print_words(out, nl, result->words);
  for (const auto& unified : result->unified) {
    out << "  unified via";
    for (const auto& [net, value] : unified.assignment)
      out << ' ' << nl.net(net).name << '=' << (value ? 1 : 0);
    out << ':';
    for (netlist::NetId bit : unified.bits) out << ' ' << nl.net(bit).name;
    out << '\n';
  }
  return 0;
}

int cmd_identify(const ParsedFlags& flags, std::ostream& out) {
  if (!flags.output) return identify_body(flags, out);
  // --output: render fully in memory, then commit with the atomic
  // temp+rename writer — an interrupted run (SIGINT unwinding as
  // CancelledError) leaves no partial file behind.
  std::ostringstream rendered;
  const int rc = identify_body(flags, rendered);
  io::write_file_atomic(*flags.output, rendered.str());
  out << "wrote " << *flags.output << '\n';
  return rc;
}

// Lifts the identified words to the typed word-level model and prints the
// schema-versioned JSON document (always JSON — the model IS the output).
// The lift self-verifies by default: each op is bit-blasted back to gates
// and simulated against the original cones, and the document's
// "equivalence" object records the verdict.  Exit 1 when any op failed
// verification, so scripts can gate on equivalence without parsing JSON.
int lift_body(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("lift: expected one design");
  Session& session = *flags.session;
  const LoadedDesign design = load_design(flags.positional[0], flags);
  out << session.lift_json(design) << '\n';
  const auto result = session.lift(design);  // cache hit
  const bool failed = result->verdict == "not_equivalent";
  return exit_code(failed ? ExitCode::kError : ExitCode::kOk);
}

int cmd_lift(const ParsedFlags& flags, std::ostream& out) {
  if (!flags.output) return lift_body(flags, out);
  std::ostringstream rendered;
  const int rc = lift_body(flags, rendered);
  io::write_file_atomic(*flags.output, rendered.str());
  out << "wrote " << *flags.output << '\n';
  return rc;
}

int cmd_reduce(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("reduce: expected one design");
  if (flags.assignments.empty())
    throw std::invalid_argument("reduce: needs at least one --assign NET=V");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();

  std::vector<std::pair<netlist::NetId, bool>> seeds;
  for (const auto& [name, value] : flags.assignments) {
    const auto net = nl.find_net(name);
    if (!net) throw std::runtime_error("no such net: " + name);
    seeds.emplace_back(*net, value);
  }
  wordrec::AssignmentMap assignment;
  if (!wordrec::propagate(*flags.session->compact(design), seeds,
                          assignment)) {
    out << "assignment is infeasible (conflicting implications)\n";
    return exit_code(ExitCode::kError);
  }
  const Netlist reduced = wordrec::materialize_reduction(
      nl, assignment, flags.session->config().wordrec);
  out << "assigned " << assignment.size() << " net(s); " << nl.gate_count()
      << " -> " << reduced.gate_count() << " gates\n";
  if (flags.output) {
    parser::write_verilog_file(reduced, *flags.output);
    out << "wrote " << *flags.output << '\n';
  }
  return 0;
}

int cmd_propagate(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("propagate: expected one design");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();
  const auto result = flags.session->identify(design);
  // Every propagation round builds a hasher; the cached view spares each
  // one a flattening pass.
  const auto view = flags.session->compact(design);
  wordrec::Options options = flags.session->config().wordrec;
  options.compact = view.get();
  const auto propagated =
      wordrec::propagate_words_to_fixpoint(nl, result->words, options);
  out << "seeded with " << result->words.count_multibit()
      << " identified word(s); propagation derived "
      << propagated.candidates.size() << " candidate word(s) ("
      << propagated.ambiguous_positions << " ambiguous position(s) skipped)\n";
  for (const auto& candidate : propagated.candidates) {
    out << "  ["
        << (candidate.source == wordrec::PropagatedWord::Source::kSubtreeRoots
                ? "roots"
                : "leaves")
        << "]";
    for (netlist::NetId bit : candidate.word.bits)
      out << ' ' << nl.net(bit).name;
    out << '\n';
  }
  return 0;
}

int cmd_evaluate(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("evaluate: expected one design");
  Session& session = *flags.session;
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const Netlist& nl = design.nl();
  const Session::Evaluation evaluation = session.evaluate(design);
  wordrec::report_degradation(*evaluation.identified, *flags.diags);
  // Structural-health context for the recovery numbers: a netlist the lint
  // rules flag (dead cones, degenerate gates) depresses recall for reasons
  // that are not the identifier's fault.
  const auto health = [&] {
    perf::Stage stage("analysis");
    return session.analyze(design);
  }();
  if (flags.json) {
    out << eval::evaluate_doc_to_json(evaluation.to_json(),
                                      eval::analysis_to_json(nl, *health))
        << "\n";
    return 0;
  }
  out << render_diagnosis(evaluation.diagnosis);
  out << "static analysis: " << health->summary() << '\n';
  for (const analysis::Finding& finding : health->findings)
    out << "  " << finding.to_string() << '\n';

  // Functional screening of the generated words (the paper's "functional
  // techniques may be applied after" note).
  const auto flagged = [&] {
    perf::Stage stage("funcheck");
    return wordrec::suspicious_words(*session.compact(design),
                                     evaluation.identified->words, 64, 0x5EED);
  }();
  if (!flagged.empty()) {
    out << "functionally suspicious generated words: " << flagged.size()
        << " (stuck/duplicate/complementary bits)\n";
  }
  return 0;
}

// Lints a design with the static-analysis engine.  Files always load
// permissively (lint exists to inspect broken inputs, so parse recovery
// findings are part of the report); exit 1 when any finding or parse
// diagnostic reaches the --fail-on threshold (default: error).
// Renders the builtin rule table for --list-rules: one row per rule in
// registration order, aligned on the widest id.
std::string render_rule_table() {
  const auto& rules = analysis::RuleRegistry::builtin().rules();
  std::size_t id_width = 0;
  std::size_t sev_width = 0;
  for (const auto& rule : rules) {
    id_width = std::max(id_width, rule->info().id.size());
    sev_width =
        std::max(sev_width, diag::severity_name(rule->info().severity).size());
  }
  std::string table;
  for (const auto& rule : rules) {
    const analysis::RuleInfo& info = rule->info();
    const std::string_view severity = diag::severity_name(info.severity);
    table += "  ";
    table += info.id;
    table.append(id_width - info.id.size() + 2, ' ');
    table += severity;
    table.append(sev_width - severity.size(), ' ');
    table += "  [";
    table += analysis::category_name(info.category);
    table += "]  ";
    table += info.summary;
    table += '\n';
  }
  return std::to_string(rules.size()) + " rule(s):\n" + table;
}

// Rejects unknown --rules ids before any design is loaded: a typo in the
// rule list is a usage error (exit 2), not an analysis failure, and should
// not depend on whether the design parses.
void validate_rule_ids(const std::vector<std::string>& ids) {
  const analysis::RuleRegistry& registry = analysis::RuleRegistry::builtin();
  for (const std::string& id : ids) {
    if (registry.find(id) != nullptr) continue;
    std::string known;
    for (const auto& rule : registry.rules()) {
      if (!known.empty()) known += ", ";
      known += rule->info().id;
    }
    throw std::invalid_argument("unknown analysis rule '" + id +
                                "' (known rules: " + known + ")");
  }
}

int cmd_lint(const ParsedFlags& flags, std::ostream& out) {
  if (flags.list_rules) {
    if (!flags.positional.empty() || !flags.rules.empty())
      throw std::invalid_argument(
          "lint: --list-rules takes no design and no --rules");
    out << render_rule_table();
    return exit_code(ExitCode::kOk);
  }
  if (flags.positional.size() != 1)
    throw std::invalid_argument("lint: expected one design");
  validate_rule_ids(flags.rules);
  const std::string& spec = flags.positional[0];
  Session& session = *flags.session;
  diag::Diagnostics& diags = *flags.diags;

  const Session::Parsed parsed = session.parse_netlist(spec, diags);

  // Parse-time counts, captured before emit() mirrors findings into the sink.
  const std::size_t parse_errors = diags.error_count();
  const std::size_t parse_warnings = diags.warning_count();

  const auto analysis =
      session.analyze(parsed.design, parsed.design.from_file ? &diags : nullptr);
  const analysis::AnalysisResult& result = *analysis;

  if (!diags.empty()) out << diags.to_string();
  for (const analysis::Finding& finding : result.findings) {
    out << finding.to_string() << '\n';
    if (!finding.fix_hint.empty()) out << "  fix: " << finding.fix_hint << '\n';
  }
  // Mirror the findings into the diag sink so --diag-json carries them too.
  analysis::emit(result, diags, spec);
  out << spec << ": " << result.summary() << '\n';

  const diag::Severity fail_on =
      flags.fail_on.value_or(diag::Severity::kError);
  std::size_t failing = result.error_count() + parse_errors;
  if (fail_on <= diag::Severity::kWarning)
    failing += result.warning_count() + parse_warnings;
  if (fail_on <= diag::Severity::kNote) failing += result.note_count();
  return exit_code(failing > 0 ? ExitCode::kError : ExitCode::kOk);
}

// Runs the whole pipeline over many designs through the batch engine; see
// pipeline/batch.h for the per-entry failure and determinism contract.
int cmd_batch(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.empty())
    throw std::invalid_argument(
        "batch: expected at least one design, glob, or manifest");
  if (flags.compact_journal && !flags.resume)
    throw std::invalid_argument(
        "batch: --compact-journal needs --resume PATH (there is no journal "
        "to compact otherwise)");
  const std::vector<std::string> specs =
      pipeline::expand_specs(flags.positional);
  pipeline::BatchOptions options;
  options.config = config_from(flags);
  options.keep_going = flags.keep_going;
  options.max_errors =
      flags.max_errors.value_or(diag::Diagnostics::kDefaultMaxErrors);
  if (flags.retries) options.retries = *flags.retries;
  if (flags.resume) options.resume_path = *flags.resume;

  // --isolate: entries run in supervised worker processes; a crash is
  // quarantined as a "crashed" entry instead of taking the batch down.
  std::unique_ptr<pipeline::supervisor::WorkerPool> pool;
  if (flags.isolate) {
    pipeline::supervisor::ignore_sigpipe();
    pool = std::make_unique<pipeline::supervisor::WorkerPool>(
        pool_options_from(flags));
    options.pool = pool.get();
    if (flags.crash_retries) options.crash_retries = *flags.crash_retries;
  }

  // Ctrl-C cancels in-flight entries cooperatively; entries that already
  // finished are in the journal (with --resume), so a rerun picks up where
  // the interrupted run left off.
  options.config.exec.cancellable = true;
  SigintGuard sigint_guard(options.config.exec.cancel);

  const pipeline::BatchResult result = pipeline::run_batch(specs, options);
  const std::string rendered =
      flags.json ? result.to_json() + "\n" : result.render_text();
  if (flags.output) {
    io::write_file_atomic(*flags.output, rendered);
    out << "wrote " << *flags.output << '\n';
  } else {
    out << rendered;
  }
  if (flags.compact_journal) {
    // Also worthwhile after an interrupt: the journal holds only completed
    // entries, and a compacted journal resumes identically.
    const pipeline::CompactionStats stats =
        pipeline::compact_journal(*flags.resume);
    out << "compacted " << *flags.resume << ": kept " << stats.kept
        << " entr" << (stats.kept == 1 ? "y" : "ies") << ", dropped "
        << stats.dropped << " superseded\n";
  }
  if (result.interrupted()) return exit_code(ExitCode::kInterrupted);
  // Quarantined crashes outrank plain failures: exit 9 tells scripts the
  // run hit a fault the workers contained, not an ordinary bad input.
  if (result.crashed > 0) return exit_code(ExitCode::kWorkerCrashed);
  return exit_code(result.all_ok() ? ExitCode::kOk : ExitCode::kError);
}

// Hidden mode: one supervised worker process (see pipeline/supervisor.h).
// Reads NDJSON request lines on stdin and answers exactly one response line
// on stdout per request; EOF on stdin is the shutdown signal.  SIGINT is
// ignored — a Ctrl-C at an interactive terminal reaches the whole foreground
// process group, and interruption is the supervisor's decision, not the
// worker's (the supervisor kills and reaps its children explicitly).
int cmd_worker(const ParsedFlags& flags, std::ostream& out) {
  if (!flags.positional.empty())
    throw std::invalid_argument("worker: takes no positional arguments");
  pipeline::supervisor::ignore_sigpipe();
  std::signal(SIGINT, SIG_IGN);

  pipeline::protocol::ExecutorConfig config;
  config.base = config_from(flags);
  // Like serve: --timeout is a per-request ceiling, not a whole-run budget.
  config.base.exec.timeout = std::chrono::milliseconds(0);
  if (flags.timeout_ms)
    config.max_timeout = std::chrono::milliseconds(*flags.timeout_ms);
  if (flags.retries) config.entry_retries = *flags.retries;
  pipeline::protocol::Executor executor(config);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const pipeline::protocol::ParsedRequest parsed =
        pipeline::protocol::parse_request(line);
    pipeline::protocol::Response response;
    if (!parsed.request) {
      response.status = pipeline::protocol::Status::kBadRequest;
      response.error = parsed.error;
      executor.record(response.status);
    } else {
      response = executor.execute(*parsed.request, exec::CancelToken{});
    }
    out << pipeline::protocol::render_response(response) << '\n';
    out.flush();
  }
  return exit_code(ExitCode::kOk);
}

int cmd_generate(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("generate: expected one family name");
  const auto bench = itc::build_benchmark(flags.positional[0]);
  const std::string dir = flags.output.value_or(".");
  std::filesystem::create_directories(dir);
  const std::string v_path = dir + "/" + bench.profile.name + ".v";
  const std::string b_path = dir + "/" + bench.profile.name + ".bench";
  parser::write_verilog_file(bench.netlist, v_path);
  parser::write_bench_file(bench.netlist, b_path);
  out << "wrote " << v_path << " and " << b_path << '\n';
  return 0;
}

int cmd_scan(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("scan: expected one design");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const auto scanned = rtl::insert_scan_chain(design.nl());
  out << "inserted " << scanned.muxes_inserted
      << " scan mux(es); control signal "
      << scanned.netlist.net(scanned.scan_enable).name << '\n';
  if (flags.output) {
    parser::write_verilog_file(scanned.netlist, *flags.output);
    out << "wrote " << *flags.output << '\n';
  }
  return 0;
}

int cmd_dot(const ParsedFlags& flags, std::ostream& out) {
  if (flags.positional.size() != 1)
    throw std::invalid_argument("dot: expected one design");
  const LoadedDesign design = load_design(flags.positional[0], flags);
  const auto view = flags.session->compact(design);

  netlist::DotOptions dot_options;
  // --depth here bounds the DRAWN cones (0 = whole design); identification
  // itself runs with default options on the session's view.
  dot_options.cone_depth = flags.depth.value_or(0);
  wordrec::Options options;
  options.compact = view.get();
  const wordrec::IdentifyResult result =
      wordrec::identify_words(design.nl(), options);
  std::size_t label = 0;
  for (const wordrec::Word& word : result.words.words) {
    if (word.width() < 2) continue;
    netlist::DotOptions::Highlight highlight;
    highlight.label = "word " + std::to_string(label++) + " (" +
                      std::to_string(word.width()) + " bits)";
    highlight.nets = word.bits;
    dot_options.highlights.push_back(std::move(highlight));
  }
  const std::string dot = to_dot(*view, dot_options);
  if (flags.output) {
    io::write_file_atomic(*flags.output, dot);
    out << "wrote " << *flags.output << " (" << dot_options.highlights.size()
        << " words highlighted)\n";
  } else {
    out << dot;
  }
  return 0;
}

int cmd_table(const ParsedFlags& flags, std::ostream& out) {
  Session& session = *flags.session;
  std::vector<std::string> names = flags.positional;
  if (names.empty())
    for (const auto& profile : itc::itc99s_profiles())
      names.push_back(profile.name);

  std::vector<eval::Table1Row> rows;
  for (const std::string& name : names) {
    const LoadedDesign design = load_design(name, flags);
    const auto reference = session.reference(design);
    // Both techniques run under this one session, so its run deadline
    // covers the pair.
    session.config().use_baseline = true;
    const auto base = session.run(design);
    session.config().use_baseline = false;
    const auto ours = session.run(design);
    rows.push_back(make_row(name, design.nl(), *reference, base, ours));
  }
  if (flags.json) {
    out << eval::table_to_json(rows) << '\n';
  } else {
    out << eval::render_table1(rows);
  }
  return 0;
}

// The long-lived analysis daemon: admission control, QoS, graceful drain.
// See pipeline/serve.h for the threading model and docs/SERVING.md for the
// wire protocol.
int cmd_serve(const ParsedFlags& flags, std::ostream& out, std::ostream& err) {
  if (!flags.positional.empty())
    throw std::invalid_argument("serve: takes no positional arguments");
  if (flags.listen && flags.socket_path)
    throw std::invalid_argument("serve: --listen and --socket are exclusive");

  pipeline::serve::ServeOptions options;
  if (flags.socket_path) {
    options.unix_path = *flags.socket_path;
  } else {
    const std::string listen = flags.listen.value_or("127.0.0.1:0");
    const auto endpoint = pipeline::client::parse_endpoint(listen);
    if (!endpoint)
      throw std::invalid_argument("serve: --listen expects HOST:PORT, got '" +
                                  listen + "'");
    options.host = endpoint->host;
    options.port = endpoint->port;
  }
  if (flags.max_queue) options.max_queue = *flags.max_queue;
  if (flags.max_inflight) options.max_inflight = *flags.max_inflight;
  if (flags.idle_timeout_ms)
    options.idle_timeout = std::chrono::milliseconds(*flags.idle_timeout_ms);
  if (flags.drain_timeout_ms)
    options.drain_timeout = std::chrono::milliseconds(*flags.drain_timeout_ms);
  if (flags.max_request_bytes)
    options.max_request_bytes = *flags.max_request_bytes;
  if (flags.isolate) options.pool = pool_options_from(flags);

  options.executor.base = config_from(flags);
  // --timeout is the server-enforced per-request ceiling, not a whole-run
  // budget: client budgets are clamped to it (see protocol.h).
  options.executor.base.exec.timeout = std::chrono::milliseconds(0);
  if (flags.timeout_ms)
    options.executor.max_timeout = std::chrono::milliseconds(*flags.timeout_ms);

  pipeline::serve::Server server(options, &err);
  server.start();
  // check.sh and tests parse this exact line to find the ephemeral port.
  out << "netrev serve listening on " << server.endpoint() << '\n';
  out.flush();

  DrainSignalGuard drain_guard(server.drain_flag());
  const ExitCode code = server.run();
  out << "netrev serve " << exit_code_name(code) << '\n';
  return exit_code(code);
}

// One request against a running daemon; prints the raw result bytes so the
// output is byte-identical to the equivalent one-shot `--json` run.
int cmd_client(const ParsedFlags& flags, std::ostream& out, std::ostream& err) {
  if (flags.positional.empty())
    throw std::invalid_argument(
        "client: expected <op> [design ...] (ping|stats|health|load|lint|"
        "identify|evaluate|batch|lift)");
  const auto op = pipeline::protocol::parse_op(flags.positional[0]);
  if (!op)
    throw std::invalid_argument("client: unknown op '" + flags.positional[0] +
                                "'");

  pipeline::protocol::Request request;
  request.op = *op;
  if (flags.request_id) request.id = *flags.request_id;
  if (*op == pipeline::protocol::Op::kBatch) {
    request.designs.assign(flags.positional.begin() + 1,
                           flags.positional.end());
    if (request.designs.empty())
      throw std::invalid_argument("client: batch expects at least one design");
  } else if (flags.positional.size() == 2) {
    request.design = flags.positional[1];
  } else if (flags.positional.size() > 2) {
    throw std::invalid_argument("client: " + flags.positional[0] +
                                " takes at most one design");
  }
  // Bools are always sent so the client's flags fully determine the run,
  // independent of the server's base configuration — that is what makes the
  // output comparable to a one-shot CLI run with the same flags.
  request.options.base = flags.base;
  request.options.permissive = flags.permissive;
  request.options.cross_group = flags.cross_group;
  request.options.use_dataflow = flags.use_dataflow;
  if (flags.depth) request.options.depth = *flags.depth;
  if (flags.max_assign) request.options.max_assign = *flags.max_assign;
  if (flags.max_errors) request.options.max_errors = *flags.max_errors;
  if (flags.timeout_ms) request.options.timeout_ms = *flags.timeout_ms;
  if (flags.degrade) request.options.degrade = *flags.degrade;

  pipeline::client::Endpoint endpoint;
  if (flags.socket_path) {
    endpoint.unix_path = *flags.socket_path;
  } else if (flags.connect) {
    const auto parsed = pipeline::client::parse_endpoint(*flags.connect);
    if (!parsed)
      throw std::invalid_argument(
          "client: --connect expects HOST:PORT, got '" + *flags.connect + "'");
    endpoint = *parsed;
  } else {
    throw std::invalid_argument(
        "client: needs --connect HOST:PORT or --socket PATH");
  }

  pipeline::client::Connection connection(endpoint);
  const pipeline::protocol::Response response = connection.round_trip(request);
  if (flags.diag_json && !response.diagnostics.empty())
    err << response.diagnostics << '\n';

  using pipeline::protocol::Status;
  switch (response.status) {
    case Status::kOk:
    case Status::kDegraded:
      out << response.result << '\n';
      return exit_code(ExitCode::kOk);
    case Status::kOverloaded:
      err << "error: " << response.error << '\n';
      return exit_code(ExitCode::kOverloaded);
    case Status::kDeadline:
      err << "error: " << response.error << '\n';
      return exit_code(ExitCode::kDeadline);
    case Status::kCancelled:
      err << "error: " << response.error << '\n';
      return exit_code(ExitCode::kInterrupted);
    case Status::kBadRequest:
      err << "error: " << response.error << '\n';
      return exit_code(ExitCode::kUsage);
    case Status::kWorkerCrashed:
      err << "error: " << response.error << '\n';
      return exit_code(ExitCode::kWorkerCrashed);
    case Status::kError:
      break;
  }
  err << "error: " << response.error << '\n';
  return exit_code(ExitCode::kError);
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return exit_code(ExitCode::kUsage);
  }
  diag::Diagnostics diags;
  bool diag_json = false;
  try {
    const std::string& command = args[0];
    if (command == "help" || command == "--help") {
      out << usage();
      return exit_code(ExitCode::kOk);
    }
    if (command == "version" || command == "--version") {
      out << "netrev " << version() << '\n';
      return exit_code(ExitCode::kOk);
    }
    const CommandSpec* spec = find_command(command);
    if (spec == nullptr) {
      err << "unknown command: " << command << "\n" << usage();
      return exit_code(ExitCode::kUsage);
    }
    ParsedFlags flags = parse_flags(*spec, args, 1);
    if (flags.version) {
      out << "netrev " << version() << '\n';
      return exit_code(ExitCode::kOk);
    }
    if (flags.max_errors) diags.set_max_errors(*flags.max_errors);
    diag_json = flags.diag_json;
    if (flags.jobs) ThreadPool::set_global_jobs(*flags.jobs);
    if (flags.profile) perf::Profiler::global().enable();

    Session session(config_from(flags));
    flags.diags = &diags;
    flags.session = &session;

    // Every command is interruptible: Ctrl-C trips the session's cancel
    // token, the active stage unwinds as CancelledError, and the command
    // exits 130 with no partial output (file writes are atomic).  serve
    // overrides this with its own drain handler; cmd_batch layers a guard
    // for its separate batch token.
    session.config().exec.cancellable = true;
    SigintGuard sigint_guard(session.config().exec.cancel);

    const int rc = [&] {
      if (command == "stats") return cmd_stats(flags, out);
      if (command == "reference") return cmd_reference(flags, out);
      if (command == "identify") return cmd_identify(flags, out);
      if (command == "lift") return cmd_lift(flags, out);
      if (command == "reduce") return cmd_reduce(flags, out);
      if (command == "evaluate") return cmd_evaluate(flags, out);
      if (command == "lint") return cmd_lint(flags, out);
      if (command == "batch") return cmd_batch(flags, out);
      if (command == "propagate") return cmd_propagate(flags, out);
      if (command == "generate") return cmd_generate(flags, out);
      if (command == "scan") return cmd_scan(flags, out);
      if (command == "dot") return cmd_dot(flags, out);
      if (command == "table") return cmd_table(flags, out);
      if (command == "serve") return cmd_serve(flags, out, err);
      if (command == "client") return cmd_client(flags, out, err);
      if (command == "worker") return cmd_worker(flags, out);
      throw std::logic_error("command in table but not dispatched: " +
                             command);
    }();
    if (flags.profile) {
      // Render while still enabled (total = elapsed since enable), then
      // disable so a later run_cli call in the same process starts clean.
      out << (flags.profile_json
                  ? perf::Profiler::global().render_json() + "\n"
                  : perf::Profiler::global().render_text());
      perf::Profiler::global().disable();
    }
    if (flags.diag_json) out << diags.to_json() << '\n';
    // A permissive run that succeeded but collected diagnostics signals
    // "recovered with warnings" so scripts can tell it from a clean pass.
    if (rc == exit_code(ExitCode::kOk) && flags.permissive && !diags.empty())
      return exit_code(ExitCode::kRecoveredWithWarnings);
    return rc;
  } catch (const UnusableInputError& error) {
    perf::Profiler::global().disable();
    if (diag_json) out << diags.to_json() << '\n';
    err << "error: " << error.what() << '\n';
    return exit_code(ExitCode::kUnusableInput);
  } catch (const exec::DeadlineExceededError& error) {
    // Only reached when degradation is off (--degrade=off) or the floor
    // rung itself tripped; otherwise the ladder absorbs the deadline.
    perf::Profiler::global().disable();
    if (diag_json) out << diags.to_json() << '\n';
    err << "error: " << error.what() << '\n';
    return exit_code(ExitCode::kDeadline);
  } catch (const exec::CancelledError& error) {
    perf::Profiler::global().disable();
    if (diag_json) out << diags.to_json() << '\n';
    err << "error: " << error.what() << '\n';
    return exit_code(ExitCode::kInterrupted);
  } catch (const std::invalid_argument& error) {
    // Bad flags, malformed values, wrong positionals: usage errors, distinct
    // from runtime failures so scripts can tell "fix the command line" from
    // "fix the input".
    perf::Profiler::global().disable();
    err << "error: " << error.what() << '\n';
    return exit_code(ExitCode::kUsage);
  } catch (const std::exception& error) {
    perf::Profiler::global().disable();
    err << "error: " << error.what() << '\n';
    return exit_code(ExitCode::kError);
  }
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run_cli(args, out, err);
}

}  // namespace netrev::cli
