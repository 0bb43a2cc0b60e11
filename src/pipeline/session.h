// netrev::Session — the unified entry point to the identification pipeline.
//
// A Session fronts every pipeline stage behind one object:
//
//   Session session(config);
//   LoadedDesign design = session.load_netlist("b03s");       // or .bench/.v
//   auto result = session.identify(design);                   // cached
//   std::string json = session.identify_json(design);         // CLI bytes
//
// load_netlist() is the single format-dispatching entry (family benchmark
// name, `.bench` file, or structural Verilog file) and replaces the
// per-call-site parser selection the CLI and examples used to do by hand.
// Every stage routes through the content-addressed ArtifactCache, so
// repeated stages on the same design — across identify/evaluate/lint, and
// across repeated runs in one process — are computed once.
//
// Thread-safety: a Session may be used from multiple threads as long as the
// configuration is not mutated concurrently and each thread reports into its
// own diag::Diagnostics sink (the explicit-sink overloads; the batch engine
// does exactly this).  The cache itself is always thread-safe.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "analysis/analyzer.h"
#include "common/diagnostics.h"
#include "eval/diagnose.h"
#include "eval/reference.h"
#include "eval/table.h"
#include "lift/model.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/run_config.h"
#include "wordrec/identify.h"

namespace netrev {

// Thrown when a permissive load recovers nothing usable (fatal diagnostics,
// or a netlist that still fails validation after repair).  The CLI maps it
// to exit code 4; the batch engine records it as a per-entry failure.
class UnusableInputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A loaded design: the immutable netlist plus its content-addressed
// identity.  Cheap to copy (the netlist is shared).
struct LoadedDesign {
  std::shared_ptr<const netlist::Netlist> netlist;
  std::string spec;            // what the caller asked for
  std::uint64_t identity = 0;  // structural fingerprint of the loaded netlist
  bool from_family = false;    // built from a family benchmark profile
  bool from_file = false;      // parsed from a netlist file

  const netlist::Netlist& nl() const { return *netlist; }
  bool valid() const { return netlist != nullptr; }
};

class Session {
 public:
  explicit Session(RunConfig config = {},
                   pipeline::ArtifactCache* cache = nullptr);

  RunConfig& config() { return config_; }
  const RunConfig& config() const { return config_; }
  pipeline::ArtifactCache& cache() { return *cache_; }
  // The session-owned sink the single-argument overloads report into; its
  // error budget is config().max_errors.
  diag::Diagnostics& diagnostics() { return diags_; }

  // --- loading -------------------------------------------------------------

  // Loads a design by spec: family benchmark name, `.bench` file, or
  // structural Verilog file (anything else parses as Verilog).  Strict by
  // default (parse errors throw); with config().parse.permissive the parsers
  // recover, the netlist is repaired, combinational cycles are broken, and
  // only a design that still fails validation is rejected
  // (UnusableInputError).  Diagnostics land in `diags` — cached loads replay
  // the recorded diagnostics so warm runs report identically to cold ones.
  LoadedDesign load_netlist(const std::string& spec);
  LoadedDesign load_netlist(const std::string& spec,
                            const parser::ParseOptions& options,
                            diag::Diagnostics& diags);

  // Wraps an in-memory netlist (a forged design such as
  // itc::build_fig1_circuit(), tests) as a loaded design, content-addressed
  // by its structural fingerprint.
  LoadedDesign adopt_netlist(netlist::Netlist nl);

  // Permissive parse WITHOUT repair, for lint: the raw recovered netlist
  // (dangling nets and all) plus the recorded parse diagnostics.  Family
  // names build the benchmark with empty diagnostics.
  struct Parsed {
    LoadedDesign design;
    std::shared_ptr<const diag::Diagnostics> parse_diags;
  };
  Parsed parse_netlist(const std::string& spec, diag::Diagnostics& diags);

  // --- stages (all cache-aware) --------------------------------------------

  // Word identification by the technique config().use_baseline selects —
  // the one place that choice is made; every stage below reads its words
  // from here.  Ours (the default) is the paper's control-signal
  // identification (config().wordrec) behind config().exec's degradation
  // ladder; with a trace sink configured it bypasses the cache and never
  // degrades, so the trace narrates the actual run.  Base is the
  // shape-hashing baseline: its result holds only words, it never degrades
  // (a deadline trip propagates), and it ignores the trace sink and the
  // dataflow mask.  Every run reads the cached compact() view, then opens
  // the profile stage "identify" (on a cache hit, an empty one).
  std::shared_ptr<const wordrec::IdentifyResult> identify(
      const LoadedDesign& design);

  // Exactly the bytes `netrev identify <design> --json` prints (sans the
  // trailing newline): identify() rendered for its technique.  A traced
  // run's bytes are rendered afresh, never cached.
  std::string identify_json(const LoadedDesign& design);

  // Word-level lifting (config().lift) of identify()'s words — the words
  // plus their control/data cones as typed multi-bit operators, each
  // self-verified by bit-blast + simulation equivalence (lift::lift_words).
  // Cached per design identity × (wordrec, lift, degrade) fingerprints;
  // profiled as stage "lift" (counter "stage.lift_ns").  Polls
  // cancellation only (analysis_checkpoint rationale): lifting has no
  // degradation ladder, so run deadlines stay with identify.
  std::shared_ptr<const lift::LiftResult> lift(const LoadedDesign& design);

  // Exactly the bytes `netrev lift <design>` prints (sans the trailing
  // newline): the schema-versioned word-level JSON document.
  std::string lift_json(const LoadedDesign& design);

  // Golden reference words from flop output names (§3).
  std::shared_ptr<const eval::ReferenceExtraction> reference(
      const LoadedDesign& design);

  struct Evaluation {
    std::shared_ptr<const eval::ReferenceExtraction> reference;
    // Null when unscored (no reference words).
    std::shared_ptr<const wordrec::IdentifyResult> identified;
    eval::Diagnosis diagnosis;

    // eval::evaluation_to_json of a scored evaluation.
    std::string to_json() const;
  };

  // identify()'s words scored against reference(): the one composition
  // `netrev evaluate`, the serve evaluate op and batch's evaluate stage
  // render.  Not a cache stage of its own — it reads the cached reference
  // and identify stages and diagnoses afresh.  Profiled as stages
  // "reference", "identify" and "diagnose".  A design whose flop names
  // carry no indices has nothing to score against: that throws
  // std::runtime_error, unless `allow_unscored`, which returns the
  // reference alone without consulting identify().
  Evaluation evaluate(const LoadedDesign& design, bool allow_unscored = false);

  // Flat data-oriented image of the design (netlist::CompactView): SoA
  // arrays, CSR adjacency, interned names, levelized orders.  Built once
  // per design identity and cached; identify(), dataflow(), lift() and the
  // CLI's functional screen and dot export all read this one view.  Derived
  // purely from the design, so it never contributes to artifact keys.
  std::shared_ptr<const netlist::CompactView> compact(
      const LoadedDesign& design);

  // Ternary dataflow facts (analysis::run_dataflow).  Cached per design
  // identity; identify() consumes the constant mask when
  // config().wordrec.use_dataflow is set, and analyze() hands the same facts
  // to the dataflow rules so one lint + identify run computes them once.
  std::shared_ptr<const analysis::DataflowFacts> dataflow(
      const LoadedDesign& design);

  // Static-analysis findings (config().analysis).  `parse_diags` optionally
  // carries parse-time recovery facts (see analysis::AnalysisContext).
  std::shared_ptr<const analysis::AnalysisResult> analyze(
      const LoadedDesign& design,
      const diag::Diagnostics* parse_diags = nullptr);

  // identify() timed as an eval::TechniqueRun (a Table 1 column) — the one
  // timed runner: the reported seconds are the wall time of this call,
  // which is the cache lookup on warm runs.
  eval::TechniqueRun run(const LoadedDesign& design);

  // --- execution control ---------------------------------------------------

  // The poll point every stage of this session runs under: the run deadline
  // (started at construction, from config().exec.timeout) capped by a fresh
  // per-stage deadline (config().exec.stage_timeout), plus the cancel token.
  // Always armed: with no timeout configured a poll reads the token and no
  // clock.
  exec::Checkpoint stage_checkpoint() const;

  // The poll point for the static-analysis stages (dataflow facts, domain
  // grouping, the lint rules).  Cancellation-only: lint has no degradation
  // ladder, so a deadline trip here would turn a slow wall clock into a hard
  // stage failure and make lint output time-dependent.  Deadlines stay with
  // the stages that can degrade (identify).
  exec::Checkpoint analysis_checkpoint() const;

 private:
  struct ParsedArtifact;  // netlist + parse diagnostics
  struct LoadArtifact;    // repaired netlist + accumulated diagnostics

  std::shared_ptr<const ParsedArtifact> parse_artifact(
      const std::string& spec, const parser::ParseOptions& options,
      std::size_t max_errors);
  // `identity` is the netlist's fingerprint, which every loaded artifact
  // already carries.
  LoadedDesign design_from(const std::string& spec,
                           std::shared_ptr<const netlist::Netlist> nl,
                           std::uint64_t identity, bool from_family,
                           bool from_file) const;
  // A traced run of the paper's technique: it bypasses the cache.
  bool traced() const {
    return config_.wordrec.trace != nullptr && !config_.use_baseline;
  }

  RunConfig config_;
  pipeline::ArtifactCache* cache_;
  diag::Diagnostics diags_;
  exec::Deadline run_deadline_;  // whole-run budget, started at construction
};

}  // namespace netrev
