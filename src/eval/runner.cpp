#include "eval/runner.h"

#include <chrono>

#include "wordrec/baseline.h"

namespace netrev::eval {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

TechniqueRun run_baseline(const netlist::Netlist& nl,
                          const wordrec::Options& options) {
  TechniqueRun run;
  const auto start = Clock::now();
  run.words = wordrec::identify_words_baseline(nl, options);
  run.seconds = elapsed_seconds(start);
  return run;
}

TechniqueRun technique_run(const wordrec::IdentifyResult& result,
                           double seconds) {
  TechniqueRun run;
  run.words = result.words;
  run.seconds = seconds;
  run.control_signals = result.used_control_signals.size();
  run.stats = result.stats;
  return run;
}

TechniqueRun run_ours(const netlist::Netlist& nl,
                      const wordrec::Options& options) {
  TechniqueRun run;
  const auto start = Clock::now();
  wordrec::IdentifyResult result = wordrec::identify_words(nl, options);
  run.seconds = elapsed_seconds(start);
  run.words = std::move(result.words);
  run.control_signals = result.used_control_signals.size();
  run.stats = result.stats;
  return run;
}

}  // namespace netrev::eval
