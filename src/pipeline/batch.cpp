#include "pipeline/batch.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/version.h"
#include "eval/report.h"
#include "exec/cancel.h"
#include "exec/chaos.h"
#include "exec/degrade.h"
#include "itc/family.h"
#include "jsonout/jsonout.h"
#include "pipeline/journal.h"
#include "pipeline/protocol.h"
#include "pipeline/session.h"
#include "pipeline/supervisor.h"
#include "wordrec/degrade.h"

namespace netrev::pipeline {

namespace {

struct EntryState {
  BatchEntry out;
  diag::Diagnostics diags;
  LoadedDesign design;
  bool restored = false;  // journal hit: recorded outcome reused as-is
};

void fail(EntryState& state, const char* stage, const std::string& message) {
  state.out.status = EntryStatus::kFailed;
  state.out.failed_stage = stage;
  state.out.error = message;
}

// The journal content hash: raw file bytes for file specs (so an edited
// input never matches its stale journal entry), a name tag for family
// benchmarks (built in-process, no bytes to hash), and a spec tag for
// unreadable files (their recorded outcome is the canonical load error).
std::uint64_t content_hash_for(const std::string& spec) {
  if (itc::is_profile_name(spec)) return fnv1a64("family:" + spec);
  std::ifstream in(spec, std::ios::binary);
  if (!in) return fnv1a64("spec:" + spec);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return fnv1a64(buffer.str());
}

// Everything that changes what one entry produces.  keep_going is excluded:
// it reshapes final statuses (the skip rule), never a recorded outcome.
// Isolation (pool, crash_retries) is excluded for the same reason: a clean
// entry's bytes are identical either way, so journals written isolated and
// non-isolated stay interchangeable.
std::uint64_t batch_options_fingerprint(const BatchOptions& options) {
  const RunConfig& config = options.config;
  std::uint64_t fp = fnv1a64("batch-options");
  fp = mix(fp, config.parse_fingerprint());
  fp = mix(fp, config.wordrec_fingerprint());
  fp = mix(fp, config.analysis_fingerprint());
  fp = mix(fp, config.lift_fingerprint());
  fp = mix(fp, config.exec_fingerprint());
  fp = mix(fp, config.use_baseline ? 1 : 0);
  // Slots of the retired run_lint, run_lift and run_evaluate switches: every
  // entry runs all three stages.  Resume journals key on these bytes.
  fp = mix(fp, 1);
  fp = mix(fp, 1);
  fp = mix(fp, 1);
  return fp;
}

// First wait of the transient-failure retry; each later wait doubles it.
constexpr std::chrono::milliseconds kRetryBackoff{20};

// Transient-failure retry: probe readability with exponential backoff before
// handing the spec to the loader.  Heals NFS hiccups and not-yet-visible
// files; a permanently missing file falls through so the load reports its
// usual error.
void await_readable(const std::string& spec, const BatchOptions& options) {
  if (options.retries == 0 || itc::is_profile_name(spec)) return;
  std::chrono::milliseconds backoff = kRetryBackoff;
  for (std::size_t attempt = 0; attempt <= options.retries; ++attempt) {
    if (std::ifstream(spec)) return;
    if (attempt == options.retries) return;
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
  }
}

void run_entry(Session& session, const BatchOptions& options,
               EntryState& state) {
  // Scope chaos injection to this entry's spec so NETREV_CHAOS with a
  // ":<match>" target fires on exactly one entry of the batch.
  exec::ChaosScope chaos_scope(state.out.spec);
  // Poll between stages so an interrupted batch stops at the next stage
  // boundary.
  const auto check_cancel = [&] {
    if (options.config.exec.cancel.cancel_requested())
      throw exec::CancelledError();
  };

  const char* stage = "load";
  try {
    check_cancel();
    await_readable(state.out.spec, options);
    state.design = session.load_netlist(state.out.spec, options.config.parse,
                                        state.diags);

    stage = "lint";
    check_cancel();
    const auto analysis = session.analyze(state.design);
    state.out.analysis_json =
        eval::analysis_to_json(state.design.nl(), *analysis);
    state.out.lint_errors = analysis->error_count();
    state.out.lint_warnings = analysis->warning_count();
    state.out.lint_notes = analysis->note_count();

    stage = "identify";
    check_cancel();
    state.out.identify_json = session.identify_json(state.design);
    const auto identified = session.identify(state.design);
    state.out.multibit_words = identified->words.count_multibit();
    state.out.control_signals = identified->used_control_signals.size();
    if (identified->degraded()) {
      state.out.degrade_level =
          exec::degrade_level_name(identified->degrade_level);
      state.out.degrade_stage = identified->degrade_stage;
      wordrec::report_degradation(*identified, state.diags);
    }

    stage = "lift";
    check_cancel();
    state.out.lift_json = session.lift_json(state.design);

    stage = "evaluate";
    check_cancel();
    // A design whose flop names carry no indices has nothing to evaluate
    // against; that is a property of the input, not a failure.
    const Session::Evaluation evaluation =
        session.evaluate(state.design, /*allow_unscored=*/true);
    if (evaluation.identified) state.out.evaluation_json = evaluation.to_json();
  } catch (const exec::CancelledError&) {
    state.out.status = EntryStatus::kCancelled;
  } catch (const std::exception& error) {
    fail(state, stage, error.what());
  }
  if (!state.diags.empty())
    state.out.diagnostics_json = state.diags.to_json();
}

// Dispatches one entry to a supervised worker process (batch --isolate) and
// adopts the journal-line result, so a clean entry's recorded fields are
// byte-identical to an in-process run by construction.  A crash burns one
// attempt; the pool hands the retry a fresh worker.  When every attempt
// crashes the entry is QUARANTINED: status kCrashed with the supervisor's
// last classification, and the batch moves on.
void run_entry_isolated(const BatchOptions& options, EntryState& state) {
  if (options.config.exec.cancel.cancel_requested()) {
    state.out.status = EntryStatus::kCancelled;
    return;
  }

  protocol::Request request;
  request.op = protocol::Op::kEntry;
  request.design = state.out.spec;
  // The entry's settings travel in the request, so the worker runs it under
  // this batch's settings whatever its own defaults.
  request.options = protocol::options_of(options.config);
  const std::string line = protocol::render_request(request);

  const std::size_t attempts =
      options.crash_retries > 0 ? options.crash_retries : 1;
  supervisor::WorkerPool::Outcome outcome;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    outcome = options.pool->run(line);
    if (!outcome.crashed) break;
  }

  const auto quarantine = [&](const std::string& crash,
                              std::size_t crash_signal) {
    state.out.status = EntryStatus::kCrashed;
    state.out.crash = crash;
    state.out.crash_signal = crash_signal;
  };
  if (outcome.crashed) {
    const supervisor::CrashInfo& info = outcome.crash;
    quarantine(info.describe(),
               info.kind == supervisor::CrashKind::kSignal
                   ? static_cast<std::size_t>(info.signal)
                   : 0);
    return;
  }

  const protocol::ParsedResponse parsed =
      protocol::parse_response(outcome.response);
  if (!parsed.response) {
    // The worker stayed alive but replied garbage — a poisoned worker is a
    // crash for quarantine purposes, just one we classified ourselves.
    quarantine("unusable worker reply: " + parsed.error, 0);
    return;
  }
  const protocol::Response& response = *parsed.response;
  if (response.status == protocol::Status::kCancelled) {
    state.out.status = EntryStatus::kCancelled;
    return;
  }
  JournalRecord record;
  if (response.status != protocol::Status::kOk ||
      !parse_journal_line(response.result, record) ||
      record.entry.spec != state.out.spec) {
    quarantine("unusable worker reply: status " +
                   std::string(protocol::status_name(response.status)) +
                   (response.error.empty() ? "" : " (" + response.error + ")"),
               0);
    return;
  }
  state.out = std::move(record.entry);
}

// Without --keep-going, reproduce the historical wave semantics over the
// final per-entry outcomes: failures surface at stage barriers in input
// order, and once the first failure (in input order) has surfaced, every
// later entry not already failed at that barrier is marked skipped — so the
// statuses are deterministic at any job count even though entries now run
// their whole pipeline independently.
void apply_skip_rule(std::vector<EntryState>& states, bool keep_going) {
  if (keep_going) return;
  static const char* kStages[] = {"load", "lint", "identify", "lift",
                                  "evaluate"};
  // Quarantined (crashed) entries never trigger the barrier: quarantine
  // means "contain and continue", so their neighbors keep their fault-free
  // outcomes even without --keep-going.
  std::vector<bool> active(states.size());
  for (std::size_t i = 0; i < states.size(); ++i)
    active[i] = states[i].out.status != EntryStatus::kCancelled &&
                states[i].out.status != EntryStatus::kCrashed;
  std::size_t first_failed = std::numeric_limits<std::size_t>::max();
  for (const char* stage : kStages) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (!active[i]) continue;
      if (states[i].out.status == EntryStatus::kFailed &&
          states[i].out.failed_stage == stage) {
        active[i] = false;
        if (i < first_failed) first_failed = i;
      }
    }
    if (first_failed == std::numeric_limits<std::size_t>::max()) continue;
    // Stage barrier: entries after the first failure that are still running
    // are skipped; entries that already failed at this or an earlier stage
    // keep their failure (they had surfaced before the barrier).  A still-
    // earlier entry may fail at a later stage, moving first_failed down —
    // exactly as successive wave barriers did.
    for (std::size_t i = first_failed + 1; i < states.size(); ++i) {
      if (!active[i]) continue;
      active[i] = false;
      states[i].out.status = EntryStatus::kSkipped;
    }
  }
}

const char* status_name(EntryStatus status) {
  switch (status) {
    case EntryStatus::kOk:
      return "ok";
    case EntryStatus::kFailed:
      return "failed";
    case EntryStatus::kSkipped:
      return "skipped";
    case EntryStatus::kCancelled:
      return "cancelled";
    case EntryStatus::kCrashed:
      return "crashed";
  }
  return "unknown";
}

}  // namespace

BatchResult run_batch(const std::vector<std::string>& specs,
                      const BatchOptions& options) {
  if (options.pool != nullptr) protocol::require_carried(options.config);
  Session session(options.config, options.cache);
  ArtifactCache& cache = session.cache();
  const std::uint64_t hits_before = cache.hits();
  const std::uint64_t misses_before = cache.misses();

  std::vector<EntryState> states(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    states[i].out.spec = specs[i];
    states[i].diags.set_max_errors(options.config.max_errors);
  }

  BatchResult result;

  // Journaled runs: restore recorded outcomes, then append the rest as they
  // finish.  Keys are computed up front (one file read per spec) so restore
  // and append agree on them.
  std::vector<std::string> keys;
  std::unique_ptr<JournalWriter> journal;
  if (!options.resume_path.empty()) {
    const std::uint64_t options_fp = batch_options_fingerprint(options);
    keys.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      keys[i] = journal_key(content_hash_for(specs[i]), options_fp);

    std::unordered_map<std::string, BatchEntry> recorded;
    for (JournalRecord& record : read_journal(options.resume_path))
      recorded[record.key] = std::move(record.entry);  // later lines win
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto it = recorded.find(keys[i]);
      if (it == recorded.end() || it->second.spec != specs[i]) continue;
      states[i].out = it->second;
      states[i].restored = true;
      ++result.resumed;
    }
    journal = std::make_unique<JournalWriter>(options.resume_path);
  }

  // One task per entry runs its whole pipeline; all failure modes become
  // per-entry records, and a finished entry is journaled before the batch
  // moves on — the crash-safety property --resume relies on.
  parallel_for(0, states.size(), [&](std::size_t i) {
    EntryState& state = states[i];
    if (state.restored) return;
    if (options.pool != nullptr)
      run_entry_isolated(options, state);
    else
      run_entry(session, options, state);
    if (journal != nullptr && (state.out.status == EntryStatus::kOk ||
                               state.out.status == EntryStatus::kFailed ||
                               state.out.status == EntryStatus::kCrashed))
      journal->append(keys[i], state.out);
  });

  apply_skip_rule(states, options.keep_going);

  result.entries.reserve(states.size());
  for (EntryState& state : states) {
    switch (state.out.status) {
      case EntryStatus::kOk:
        ++result.ok;
        break;
      case EntryStatus::kFailed:
        ++result.failed;
        break;
      case EntryStatus::kSkipped:
        ++result.skipped;
        break;
      case EntryStatus::kCancelled:
        ++result.cancelled;
        break;
      case EntryStatus::kCrashed:
        ++result.crashed;
        break;
    }
    result.entries.push_back(std::move(state.out));
  }
  result.cache_hits = cache.hits() - hits_before;
  result.cache_misses = cache.misses() - misses_before;
  return result;
}

std::string BatchResult::to_json() const {
  std::string out = "{" + jsonout::version_field() + ",\"version\":\"";
  out += jsonout::escape(version());
  out += "\",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BatchEntry& entry = entries[i];
    if (i > 0) out += ",";
    out += "{\"design\":\"" + jsonout::escape(entry.spec) + "\",\"status\":\"";
    out += status_name(entry.status);
    out += "\"";
    switch (entry.status) {
      case EntryStatus::kOk:
        out += ",\"identify\":" + entry.identify_json;
        out += ",\"lift\":";
        out += entry.lift_json.empty() ? "null" : entry.lift_json;
        out += ",\"analysis\":";
        out += entry.analysis_json.empty() ? "null" : entry.analysis_json;
        out += ",\"evaluation\":";
        out += entry.evaluation_json.empty() ? "null" : entry.evaluation_json;
        out += ",\"diagnostics\":";
        out += entry.diagnostics_json.empty() ? "null" : entry.diagnostics_json;
        out += ",\"words\":" + std::to_string(entry.multibit_words);
        out +=
            ",\"control_signals\":" + std::to_string(entry.control_signals);
        out += ",\"degraded\":";
        if (entry.degrade_level.empty()) {
          out += "null";
        } else {
          out += "{\"level\":\"" + jsonout::escape(entry.degrade_level) +
                 "\",\"stage\":\"" + jsonout::escape(entry.degrade_stage) +
                 "\"}";
        }
        break;
      case EntryStatus::kFailed:
        out += ",\"stage\":\"" + jsonout::escape(entry.failed_stage) + "\"";
        out += ",\"error\":\"" + jsonout::escape(entry.error) + "\"";
        out += ",\"diagnostics\":";
        out += entry.diagnostics_json.empty() ? "null" : entry.diagnostics_json;
        break;
      case EntryStatus::kCrashed:
        out += ",\"crash\":\"" + jsonout::escape(entry.crash) + "\"";
        out += ",\"signal\":" + std::to_string(entry.crash_signal);
        break;
      case EntryStatus::kSkipped:
      case EntryStatus::kCancelled:
        break;
    }
    out += "}";
  }
  out += "],\"summary\":{\"total\":" + std::to_string(entries.size());
  out += ",\"ok\":" + std::to_string(ok);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"skipped\":" + std::to_string(skipped);
  out += ",\"cancelled\":" + std::to_string(cancelled);
  out += ",\"crashed\":" + std::to_string(crashed);
  out += "}}";
  return out;
}

std::string BatchResult::render_text() const {
  std::string out;
  for (const BatchEntry& entry : entries) {
    out += entry.spec;
    out += ": ";
    switch (entry.status) {
      case EntryStatus::kOk:
        out += "ok, " + std::to_string(entry.multibit_words) + " word(s), " +
               std::to_string(entry.control_signals) + " control signal(s)";
        if (!entry.analysis_json.empty())
          out += ", lint " + std::to_string(entry.lint_errors) +
                 " error(s) / " + std::to_string(entry.lint_warnings) +
                 " warning(s)";
        if (!entry.degrade_level.empty())
          out += ", degraded to '" + entry.degrade_level + "'";
        break;
      case EntryStatus::kFailed:
        out += "FAILED at " + entry.failed_stage + ": " + entry.error;
        break;
      case EntryStatus::kSkipped:
        out += "skipped";
        break;
      case EntryStatus::kCancelled:
        out += "cancelled";
        break;
      case EntryStatus::kCrashed:
        out += "CRASHED: " + entry.crash;
        break;
    }
    out += "\n";
  }
  out += "batch: " + std::to_string(entries.size()) + " total, " +
         std::to_string(ok) + " ok, " + std::to_string(failed) + " failed, " +
         std::to_string(skipped) + " skipped";
  if (cancelled > 0) out += ", " + std::to_string(cancelled) + " cancelled";
  if (crashed > 0) out += ", " + std::to_string(crashed) + " crashed";
  if (resumed > 0)
    out += "; resumed " + std::to_string(resumed) + " from journal";
  out += "; cache: " + std::to_string(cache_hits) + " hit(s), " +
         std::to_string(cache_misses) + " miss(es)\n";
  return out;
}

}  // namespace netrev::pipeline
