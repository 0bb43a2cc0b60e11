#include "pipeline/session.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/text.h"
#include "eval/report.h"
#include "itc/family.h"
#include "lift/json.h"
#include "lift/lift.h"
#include "netlist/repair.h"
#include "netlist/validate.h"
#include "parser/bench_parser.h"
#include "parser/verilog_parser.h"
#include "perf/profile.h"
#include "pipeline/fingerprint.h"
#include "wordrec/baseline.h"
#include "wordrec/degrade.h"

namespace netrev {

namespace {

// Re-reports every stored diagnostic into `to`, so a warm (cached) load
// surfaces exactly the diagnostics the cold load did.
void replay(const diag::Diagnostics& from, diag::Diagnostics& to) {
  if (&from == &to) return;
  for (const diag::Diagnostic& entry : from.entries())
    to.report(entry.severity, entry.message, entry.location);
}

}  // namespace

struct Session::ParsedArtifact {
  netlist::Netlist netlist;
  diag::Diagnostics diags;
  std::uint64_t content = 0;   // raw input content hash
  std::uint64_t identity = 0;  // structural fingerprint of `netlist`
};

struct Session::LoadArtifact {
  netlist::Netlist netlist;
  diag::Diagnostics diags;  // parse + repair + cycle-break + validation
  std::uint64_t identity = 0;
  bool usable = true;
  std::size_t validation_errors = 0;
};

Session::Session(RunConfig config, pipeline::ArtifactCache* cache)
    : config_(std::move(config)),
      cache_(cache != nullptr ? cache : &pipeline::ArtifactCache::global()) {
  if (config_.cache_entries) cache_->set_max_entries(*config_.cache_entries);
  run_deadline_ = exec::Deadline::after(config_.exec.timeout);
}

exec::Checkpoint Session::stage_checkpoint() const {
  const ExecConfig& exec_cfg = config_.exec;
  const bool armed = exec_cfg.timeout.count() > 0 ||
                     exec_cfg.stage_timeout.count() > 0 ||
                     exec_cfg.cancellable;
  if (!armed) return {};
  return exec::Checkpoint(
      exec_cfg.cancel,
      exec::Deadline::sooner(run_deadline_,
                             exec::Deadline::after(exec_cfg.stage_timeout)));
}

exec::Checkpoint Session::analysis_checkpoint() const {
  if (!config_.exec.cancellable) return {};
  return exec::Checkpoint(config_.exec.cancel, exec::Deadline());
}

LoadedDesign Session::design_from(const std::string& spec,
                                  std::shared_ptr<const netlist::Netlist> nl,
                                  bool from_family, bool from_file) const {
  LoadedDesign design;
  design.spec = spec;
  design.identity = pipeline::netlist_fingerprint(*nl);
  design.netlist = std::move(nl);
  design.from_family = from_family;
  design.from_file = from_file;
  return design;
}

std::shared_ptr<const Session::ParsedArtifact> Session::parse_artifact(
    const std::string& spec, const parser::ParseOptions& options,
    std::size_t max_errors) {
  if (itc::is_profile_name(spec)) {
    pipeline::ArtifactKey key{"parse", pipeline::fnv1a64("family:" + spec), 0};
    return cache_->get_or_compute<ParsedArtifact>(key, [&] {
      auto artifact = std::make_shared<ParsedArtifact>();
      artifact->netlist = itc::build_benchmark(spec).netlist;
      artifact->content = key.content;
      artifact->identity = pipeline::netlist_fingerprint(artifact->netlist);
      return artifact;
    });
  }

  std::ifstream in(spec);
  if (!in) {
    if (!options.permissive)
      throw std::runtime_error("cannot open file: " + spec);
    // Not cached: readability is an environment fact, not input content.
    auto artifact = std::make_shared<ParsedArtifact>();
    artifact->netlist =
        netlist::Netlist(ends_with(spec, ".bench") ? "bench" : "recovered");
    artifact->diags.fatal("cannot open file: " + spec, {spec, 0, 0});
    return artifact;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  parser::ParseOptions parse_options = options;
  parse_options.filename = spec;
  parse_options.checkpoint = stage_checkpoint();
  pipeline::ArtifactKey key{"parse", pipeline::fnv1a64(source),
                            pipeline::fingerprint(parse_options, max_errors)};
  return cache_->get_or_compute<ParsedArtifact>(key, [&] {
    auto artifact = std::make_shared<ParsedArtifact>();
    artifact->diags.set_max_errors(max_errors);
    artifact->netlist =
        ends_with(spec, ".bench")
            ? parser::parse_bench(source, parse_options, artifact->diags)
            : parser::parse_verilog(source, parse_options, artifact->diags);
    artifact->content = key.content;
    artifact->identity = pipeline::netlist_fingerprint(artifact->netlist);
    return artifact;
  });
}

LoadedDesign Session::load_netlist(const std::string& spec) {
  return load_netlist(spec, config_.parse, diags_);
}

LoadedDesign Session::load_netlist(const std::string& spec,
                                   const parser::ParseOptions& options) {
  return load_netlist(spec, options, diags_);
}

LoadedDesign Session::load_netlist(const std::string& spec,
                                   const parser::ParseOptions& options,
                                   diag::Diagnostics& diags) {
  perf::Stage stage("load");
  const bool family = itc::is_profile_name(spec);
  auto parsed = parse_artifact(spec, options, diags.max_errors());
  if (family || !options.permissive) {
    // Strict parses either succeeded identically or threw above.
    std::shared_ptr<const netlist::Netlist> nl(parsed, &parsed->netlist);
    LoadedDesign design = design_from(spec, std::move(nl), family, !family);
    design.identity = parsed->identity;
    return design;
  }

  if (!parsed->diags.usable()) {
    replay(parsed->diags, diags);
    throw UnusableInputError("input unusable: " + spec +
                             " (fatal diagnostics; see --diag-json)");
  }

  parser::ParseOptions parse_options = options;
  parse_options.filename = spec;
  pipeline::ArtifactKey key{
      "load", parsed->content,
      pipeline::fingerprint(parse_options, diags.max_errors())};
  auto loaded = cache_->get_or_compute<LoadArtifact>(key, [&] {
    auto artifact = std::make_shared<LoadArtifact>();
    artifact->diags.set_max_errors(diags.max_errors());
    replay(parsed->diags, artifact->diags);
    netlist::RepairResult repaired =
        netlist::repair(parsed->netlist, artifact->diags);
    // repair() ties and prunes but cannot fix combinational cycles; break
    // them here (diag-reported) so levelization and identification proceed.
    analysis::CycleBreakResult decycled =
        analysis::break_combinational_cycles(repaired.netlist,
                                             artifact->diags);
    if (decycled.cycles_broken > 0)
      repaired.netlist = std::move(decycled.netlist);
    const auto report = netlist::validate(repaired.netlist);
    if (!report.ok()) {
      for (const auto& issue : report.issues)
        if (issue.severity == netlist::ValidationIssue::Severity::kError)
          artifact->diags.error(issue.message, {spec, 0, 0});
      artifact->usable = false;
      artifact->validation_errors = report.error_count();
    }
    artifact->netlist = std::move(repaired.netlist);
    artifact->identity = pipeline::netlist_fingerprint(artifact->netlist);
    return artifact;
  });

  replay(loaded->diags, diags);
  if (!loaded->usable)
    throw UnusableInputError("input unusable: " + spec +
                             " fails validation (" +
                             std::to_string(loaded->validation_errors) +
                             " error(s)) even after repair");
  std::shared_ptr<const netlist::Netlist> nl(loaded, &loaded->netlist);
  LoadedDesign design = design_from(spec, std::move(nl), false, true);
  design.identity = loaded->identity;
  return design;
}

LoadedDesign Session::adopt_netlist(netlist::Netlist nl) {
  auto owned = std::make_shared<const netlist::Netlist>(std::move(nl));
  // Read the name before std::move(owned): argument evaluation order is
  // unspecified, so calling owned->name() in the same argument list could
  // dereference the already-moved-from pointer.
  std::string spec = owned->name();
  return design_from(std::move(spec), std::move(owned), false, false);
}

Session::Parsed Session::parse_netlist(const std::string& spec,
                                       diag::Diagnostics& diags) {
  parser::ParseOptions options = config_.parse;
  options.permissive = true;
  const bool family = itc::is_profile_name(spec);
  auto parsed = parse_artifact(spec, options, diags.max_errors());
  if (!family) replay(parsed->diags, diags);
  if (!parsed->diags.usable())
    throw UnusableInputError("input unusable: " + spec +
                             " (fatal diagnostics; see --diag-json)");
  Parsed result;
  std::shared_ptr<const netlist::Netlist> nl(parsed, &parsed->netlist);
  result.design = design_from(spec, std::move(nl), family, !family);
  result.design.identity = parsed->identity;
  result.parse_diags =
      std::shared_ptr<const diag::Diagnostics>(parsed, &parsed->diags);
  return result;
}

std::shared_ptr<const netlist::CompactView> Session::compact(
    const LoadedDesign& design) {
  // Derived purely from the netlist, which the design identity already
  // keys; no options fingerprint.
  pipeline::ArtifactKey key{"compact", design.identity, 0};
  return cache_->get_or_compute<netlist::CompactView>(key, [&] {
    perf::Stage stage("compact");
    return std::make_shared<netlist::CompactView>(
        netlist::CompactView::build(design.nl()));
  });
}

std::shared_ptr<const analysis::DataflowFacts> Session::dataflow(
    const LoadedDesign& design) {
  // Only dataflow_max_iterations keys the stage: the checkpoint is
  // observation-only, and the netlist is keyed by the design identity.
  pipeline::ArtifactKey key{
      "dataflow", design.identity,
      pipeline::mix(pipeline::fnv1a64("dataflow-options"),
                    config_.analysis.dataflow_max_iterations)};
  // Opened outside the cache lookup so the profile tree has the same shape
  // on hits and misses (run_dataflow's stage.dataflow_ns counter still only
  // accrues on misses, which is the honest cost).
  perf::Stage stage("dataflow");
  return cache_->get_or_compute<analysis::DataflowFacts>(key, [&] {
    analysis::DataflowOptions options;
    options.max_iterations = config_.analysis.dataflow_max_iterations;
    options.checkpoint = analysis_checkpoint();
    return std::make_shared<analysis::DataflowFacts>(
        analysis::run_dataflow(*compact(design), options));
  });
}

std::shared_ptr<const wordrec::IdentifyResult> Session::identify(
    const LoadedDesign& design) {
  wordrec::Options options = config_.wordrec;
  options.checkpoint = stage_checkpoint();
  // The session resolves the dataflow mask from its cached stage so repeated
  // identifies (and a lint on the same design) share one engine run.  Only
  // the control-signal search of a run with reduction trials reads it, so
  // Base and --max-assign 0 skip it.  The mask must outlive the
  // identify_words call below.
  const bool runs_trials =
      !config_.use_baseline && options.max_simultaneous_assignments > 0;
  std::vector<std::uint8_t> constant_mask;
  if (runs_trials && options.use_dataflow &&
      options.constant_nets == nullptr) {
    constant_mask = dataflow(design)->constant_mask();
    options.constant_nets = &constant_mask;
  }
  // Every run — Base, traced and cached Ours — reads the compact core from
  // the cached stage, so repeated identifies share one flattening pass.  The
  // shared_ptr keeps the view alive past the identify_words call; like the
  // mask above, it never keys artifacts.
  std::shared_ptr<const netlist::CompactView> view;
  if (options.compact == nullptr) {
    view = compact(design);
    options.compact = view.get();
  }
  if (traced()) {
    // Traced runs narrate the actual execution; never serve or store them,
    // and never degrade them (a trace documents the full technique's run —
    // deadline trips propagate as errors instead).
    return std::make_shared<wordrec::IdentifyResult>(
        wordrec::identify_words(design.nl(), options));
  }
  // identify_words opens the "identify" stage itself on a miss; a hit opens
  // it here, so the profile tree keeps its shape.
  const auto cached = [&](const pipeline::ArtifactKey& key, auto compute) {
    bool computed = false;
    auto result = cache_->get_or_compute<wordrec::IdentifyResult>(key, [&] {
      computed = true;
      return std::make_shared<wordrec::IdentifyResult>(compute());
    });
    if (!computed) perf::Stage stage("identify");
    return result;
  };
  if (config_.use_baseline) {
    // The baseline IS a degradation rung, so it gets deadline enforcement but
    // no ladder of its own: a trip here propagates to the caller.
    return cached(
        {"identify_base", design.identity, config_.wordrec_fingerprint()},
        [&] {
          wordrec::IdentifyResult result;
          result.words = wordrec::identify_words_baseline(design.nl(), options);
          return result;
        });
  }
  // The degrade policy changes what a tripped run produces, so it is part of
  // the key; the deadline itself is not — an untripped deadline must share
  // cache entries with no deadline at all.
  return cached(
      {"identify", design.identity,
       pipeline::mix(config_.wordrec_fingerprint(),
                     config_.exec_fingerprint())},
      [&] {
        return wordrec::identify_words_degradable(design.nl(), options,
                                                  config_.exec.degrade);
      });
}

std::string Session::identify_json(const LoadedDesign& design) {
  const auto render = [&] {
    const auto result = identify(design);
    // The baseline's document is its word list alone: it has no control
    // signals, unified words or stats to report.
    return config_.use_baseline
               ? eval::words_to_json(design.nl(), result->words)
               : eval::identify_result_to_json(design.nl(), *result);
  };
  if (traced()) return render();
  const char* stage = config_.use_baseline ? "identify_base_json"
                                           : "identify_json";
  pipeline::ArtifactKey key{
      stage, design.identity,
      pipeline::mix(config_.wordrec_fingerprint(), config_.exec_fingerprint())};
  auto json = cache_->get_or_compute<std::string>(
      key, [&] { return std::make_shared<std::string>(render()); });
  return *json;
}

std::shared_ptr<const lift::LiftResult> Session::lift(
    const LoadedDesign& design) {
  // The word source (paper technique vs baseline) changes the lifted model,
  // so baseline lifts key under their own stage name — mirroring the
  // identify_json split.  The options fingerprint mixes the word-recovery
  // knobs, the lift knobs, and the degrade policy (which changes what a
  // tripped identify feeds the lifter).
  const char* stage_name = config_.use_baseline ? "lift_base" : "lift";
  pipeline::ArtifactKey key{
      stage_name, design.identity,
      pipeline::mix(
          pipeline::mix(config_.wordrec_fingerprint(), config_.lift_fingerprint()),
          config_.exec_fingerprint())};
  // Keep the profile tree shape identical on hits and misses (the dataflow
  // pattern): lift_words charges the "stage.lift_ns" counter itself, but the
  // wall-tree stage is opened here, outside the cache lookup.
  perf::Stage stage("lift");
  return cache_->get_or_compute<lift::LiftResult>(key, [&] {
    const auto identified = identify(design);
    // Cancellation-only poll (the lint rationale): lifting has no
    // degradation ladder, so a deadline trip here — e.g. a budget already
    // consumed by a degraded identify — would turn into a hard stage
    // failure instead of the documented degrade-and-continue behavior.
    // Deadlines stay with the stages that can degrade.
    return std::make_shared<lift::LiftResult>(
        lift::lift_words(design.nl(), *compact(design), identified->words,
                         config_.lift, analysis_checkpoint()));
  });
}

std::string Session::lift_json(const LoadedDesign& design) {
  const char* stage = config_.use_baseline ? "lift_base_json" : "lift_json";
  pipeline::ArtifactKey key{
      stage, design.identity,
      pipeline::mix(
          pipeline::mix(config_.wordrec_fingerprint(), config_.lift_fingerprint()),
          config_.exec_fingerprint())};
  auto json = cache_->get_or_compute<std::string>(key, [&] {
    return std::make_shared<std::string>(
        lift::lift_result_to_json(design.nl(), *lift(design)));
  });
  return *json;
}

std::shared_ptr<const eval::ReferenceExtraction> Session::reference(
    const LoadedDesign& design) {
  pipeline::ArtifactKey key{"reference", design.identity, 0};
  return cache_->get_or_compute<eval::ReferenceExtraction>(key, [&] {
    return std::make_shared<eval::ReferenceExtraction>(
        eval::extract_reference_words(design.nl()));
  });
}

std::shared_ptr<const analysis::AnalysisResult> Session::analyze(
    const LoadedDesign& design, const diag::Diagnostics* parse_diags) {
  std::uint64_t options = config_.analysis_fingerprint();
  if (parse_diags != nullptr)
    options = pipeline::mix(options, pipeline::fingerprint(*parse_diags));
  pipeline::ArtifactKey key{"analyze", design.identity, options};
  return cache_->get_or_compute<analysis::AnalysisResult>(key, [&] {
    analysis::AnalysisOptions analysis_options = config_.analysis;
    analysis_options.checkpoint = analysis_checkpoint();
    // Hand the dataflow rules the session's cached facts so a lint sharing
    // a cache with an identify run (or an earlier lint) computes the engine
    // once — but only when a selected rule would consume them.
    std::shared_ptr<const analysis::DataflowFacts> facts;
    const auto& enabled = analysis_options.enabled_rules;
    const bool wants_dataflow =
        enabled.empty() ||
        std::any_of(enabled.begin(), enabled.end(), [](const std::string& id) {
          return id == "const-net" || id == "stuck-ff" ||
                 id == "redundant-mux";
        });
    if (wants_dataflow) facts = dataflow(design);
    return std::make_shared<analysis::AnalysisResult>(
        analysis::analyze(design.nl(), analysis_options, parse_diags,
                          analysis::RuleRegistry::builtin(), facts.get()));
  });
}

Session::Evaluation Session::evaluate(const LoadedDesign& design,
                                      bool allow_unscored) {
  Evaluation evaluation;
  {
    perf::Stage stage("reference");
    evaluation.reference = reference(design);
  }
  if (evaluation.reference->words.empty()) {
    if (allow_unscored) return evaluation;
    throw std::runtime_error(
        "evaluate: no reference words (flop output names carry no indices)");
  }
  evaluation.identified = identify(design);
  perf::Stage stage("diagnose");
  evaluation.diagnosis = eval::diagnose(
      design.nl(), evaluation.identified->words, *evaluation.reference);
  return evaluation;
}

std::string Session::Evaluation::to_json() const {
  return eval::evaluation_to_json(diagnosis.summary, reference->words);
}

eval::TechniqueRun Session::run(const LoadedDesign& design) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = identify(design);
  eval::TechniqueRun run;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.words = result->words;
  run.control_signals = result->used_control_signals.size();
  run.stats = result->stats;
  return run;
}

}  // namespace netrev
