// Batch pipeline engine: parse -> repair -> lint -> identify -> lift ->
// evaluate over many netlists, one entry-pipeline per input scheduled on the shared
// ThreadPool and routed through one Session so artifacts (parses,
// identifications, references, analyses) are computed once per distinct
// input.  Entries complete individually, which is what makes the journal
// crash-safe: a finished entry is on disk before its neighbors finish.
//
// Determinism contract: per-entry results are index-addressed and the
// output (JSON and text) is byte-identical at any job count, on warm cache
// re-runs, and on resumed runs (a journal-restored entry reproduces the
// recorded bytes exactly).  For that reason the JSON deliberately carries no
// timing, no cache statistics, and no resume markers — those go to perf
// counters ("cache.hits", "cache.misses") and the text summary instead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pipeline/artifact_cache.h"
#include "pipeline/run_config.h"

namespace netrev::pipeline {

namespace supervisor {
class WorkerPool;
}

struct BatchOptions {
  RunConfig config;

  // Record per-entry failures but keep running every entry.  Off by
  // default: the first failure (in input order) marks all later entries
  // skipped — deterministically, regardless of which entries had already
  // raced ahead on other threads.
  bool keep_going = false;

  // Bounded retry for transient file-I/O failures: before loading a file
  // spec, its readability is probed up to `retries` extra times with
  // exponential backoff (20 ms, doubled per attempt).  A file that never
  // becomes readable falls through to the canonical load error.
  std::size_t retries = 0;

  // Crash-safe resume journal (CLI --resume): completed entries are appended
  // to this JSONL file as they finish, and entries already recorded there —
  // under the same input bytes and options — are restored instead of rerun.
  // Empty = no journaling.  See pipeline/journal.h.
  std::string resume_path;

  // Cache to route artifacts through; null = the process-global cache.
  ArtifactCache* cache = nullptr;

  // Process isolation (CLI --isolate): dispatch each entry to a supervised
  // worker process through this pool instead of running it in-process.  A
  // clean entry's output is byte-identical either way: the entry carries
  // the settings (protocol::options_of(config)), the worker runs the same
  // run_batch code path and returns the same journal-line bytes, and
  // run_batch refuses a config with settings an entry cannot carry
  // (protocol::require_carried).  A hard crash (segfault, OOM kill,
  // watchdog timeout) becomes a quarantined "crashed" entry instead of
  // taking down the run.  Null = in-process.
  supervisor::WorkerPool* pool = nullptr;

  // How many crashed attempts quarantine an entry (CLI --crash-retries):
  // 2 = one retry on a fresh worker after the first crash.  Only meaningful
  // with `pool`; clamped to at least 1.
  std::size_t crash_retries = 2;
};

enum class EntryStatus { kOk, kFailed, kSkipped, kCancelled, kCrashed };

struct BatchEntry {
  std::string spec;
  EntryStatus status = EntryStatus::kOk;

  // Failure record (status == kFailed).
  std::string failed_stage;  // "load" | "lint" | "identify" | "lift" |
                             // "evaluate"
  std::string error;

  // Crash record (status == kCrashed, isolated runs only): the supervisor's
  // classification of how the worker died, e.g. "signal 11 (SIGSEGV)" or
  // "watchdog timeout (killed after 500ms)", and the terminating signal
  // number (0 when the worker exited or timed out without a signal).
  std::string crash;
  std::size_t crash_signal = 0;

  // Stage outputs (status == kOk; empty when the stage did not run).
  // identify_json is byte-identical to `netrev identify <spec> --json`;
  // lift_json to `netrev lift <spec>`.
  std::string identify_json;
  std::string lift_json;
  std::string analysis_json;
  std::string evaluation_json;  // empty when the design has no reference words
  std::string diagnostics_json;  // empty when no diagnostics were collected

  // Degradation record (empty when identification ran at full fidelity):
  // the rung that answered and the rung that first tripped.
  std::string degrade_level;
  std::string degrade_stage;

  std::size_t multibit_words = 0;
  std::size_t control_signals = 0;  // 0 for the baseline technique
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::size_t lint_notes = 0;
};

struct BatchResult {
  std::vector<BatchEntry> entries;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t cancelled = 0;  // interrupted mid-run (SIGINT / cancel token)
  std::size_t crashed = 0;    // quarantined after crashing their workers
  std::size_t resumed = 0;    // restored from the journal, not recomputed

  // Cache traffic attributable to this run (lookups during the run).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  bool all_ok() const {
    return failed == 0 && skipped == 0 && cancelled == 0 && crashed == 0;
  }
  // True when the run was stopped by cancellation; the journal (if any)
  // holds every entry that finished, so --resume completes the rest.
  bool interrupted() const { return cancelled > 0; }

  // {"schema_version":1,"version":...,"entries":[...],"summary":{...}} —
  // stable bytes: no timing, no cache statistics, no resume markers.
  std::string to_json() const;
  // Human-readable per-entry lines plus a summary with cache statistics.
  std::string render_text() const;
};

// Runs the batch over already-expanded specs (see manifest.h).  Per-entry
// failures never throw out of this function; spec-expansion errors, an
// unopenable resume journal and, with a pool, a config isolated entries
// cannot carry (std::invalid_argument, before any entry runs) do.
BatchResult run_batch(const std::vector<std::string>& specs,
                      const BatchOptions& options = {});

}  // namespace netrev::pipeline
