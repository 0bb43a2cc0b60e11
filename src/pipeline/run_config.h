// One configuration object for a whole pipeline run.
//
// RunConfig consolidates the per-stage option structs that call sites used
// to plumb individually (parser::ParseOptions, wordrec::Options,
// analysis::AnalysisOptions) plus the technique selector, so the CLI, the
// batch engine, and library embedders configure a netrev::Session in one
// place and cache keys can be derived uniformly.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "analysis/rule.h"
#include "common/diagnostics.h"
#include "exec/cancel.h"
#include "exec/degrade.h"
#include "lift/options.h"
#include "parser/parse_options.h"
#include "wordrec/options.h"

namespace netrev {

// Execution control: wall-clock budgets, cancellation, and the degradation
// policy applied when a budget trips.  Timeouts and the cancel token are
// observation-only (excluded from every fingerprint); the degrade policy is
// part of exec_fingerprint() because it changes what a tripped run produces.
struct ExecConfig {
  // Whole-run wall-clock budget; 0 = unlimited.
  std::chrono::milliseconds timeout{0};
  // Per-stage wall-clock budget (each load/identify/evaluate stage gets its
  // own deadline, still capped by the run deadline); 0 = unlimited.
  std::chrono::milliseconds stage_timeout{0};
  // What happens when a stage deadline or work budget trips.
  exec::DegradePolicy degrade;
  // External cancellation (SIGINT, embedder shutdown).  Copies share the
  // flag, so the CLI can hand the same token to a signal handler.  Every
  // stage checkpoint carries it, so mid-stage work polls it.
  exec::CancelToken cancel;
};

struct RunConfig {
  // How inputs are parsed (permissive recovery, resource limits).  The
  // filename field is set per load; leave it empty here.
  parser::ParseOptions parse;

  // Diagnostics error budget (CLI --max-errors): recovery stops after it.
  std::size_t max_errors = diag::Diagnostics::kDefaultMaxErrors;

  // The word-identification knobs (§2 of the paper).
  wordrec::Options wordrec;

  // Static-analysis / lint knobs.
  analysis::AnalysisOptions analysis;

  // Word-level lifting knobs (verification vectors, opaque cone depth).
  lift::Options lift;

  // Identify with the shape-hashing baseline instead of the paper's
  // control-signal technique ("Base" vs "Ours" in Table 1).
  bool use_baseline = false;

  // Deadlines, cancellation, degradation (see ExecConfig).
  ExecConfig exec;

  // Artifact-cache capacity override: number of entries the session's cache
  // may hold (0 disables caching entirely).  Unset = the built-in default.
  // Never part of any fingerprint — capacity changes retention, not results.
  std::optional<std::size_t> cache_entries;

  // Fingerprints of the option subsets, as used in artifact-cache keys.
  // The parse fingerprint covers max_errors (it bounds what a permissive
  // parse recovers).
  std::uint64_t parse_fingerprint() const;
  std::uint64_t wordrec_fingerprint() const;
  std::uint64_t analysis_fingerprint() const;
  std::uint64_t lift_fingerprint() const;
  // Fingerprint of the degrade policy only — timeouts and the cancel token
  // never key artifacts (an untripped deadline must share cache entries with
  // no deadline).  Mixed into identify keys by the Session.
  std::uint64_t exec_fingerprint() const;
};

}  // namespace netrev
