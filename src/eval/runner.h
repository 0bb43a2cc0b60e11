// Timed execution of both identification techniques on one netlist.
#pragma once

#include <string>

#include "netlist/netlist.h"
#include "wordrec/identify.h"
#include "wordrec/options.h"
#include "wordrec/word.h"

namespace netrev::eval {

struct TechniqueRun {
  wordrec::WordSet words;
  double seconds = 0.0;
  std::size_t control_signals = 0;     // 0 for the baseline
  wordrec::IdentifyStats stats;        // zeroed for the baseline
};

TechniqueRun run_baseline(const netlist::Netlist& nl,
                          const wordrec::Options& options = {});

TechniqueRun run_ours(const netlist::Netlist& nl,
                      const wordrec::Options& options = {});

// Package an already-computed identification as a TechniqueRun with an
// externally measured wall time.  netrev::Session::run routes its
// cache-aware identify() through this, so a warm run reports the
// (near-zero) cache-lookup time instead of re-running the technique.
TechniqueRun technique_run(const wordrec::IdentifyResult& result,
                           double seconds);

}  // namespace netrev::eval
