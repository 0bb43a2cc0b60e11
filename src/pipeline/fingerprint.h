// Content and option fingerprints for the artifact cache.
//
// Every cached artifact is addressed by (stage, content hash, options
// fingerprint).  The content hash identifies *what* was processed (raw file
// bytes for parse artifacts, the structural identity of the loaded netlist
// for everything downstream); the options fingerprint identifies *how* (the
// knobs of ParseOptions / wordrec::Options / AnalysisOptions that can change
// the stage's output).  Non-owning instrumentation (trace sinks, cancel and
// deadline checkpoints) is deliberately excluded: it never changes results,
// only observation.  docs/API.md documents the keying rules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/rule.h"
#include "exec/degrade.h"
#include "lift/options.h"
#include "netlist/netlist.h"
#include "parser/parse_options.h"
#include "wordrec/options.h"

namespace netrev::pipeline {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over raw bytes; chainable via `seed`.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed = kFnvOffset);

// Order-dependent combination of two 64-bit hashes.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// A hash as 16 lowercase hex digits (journal keys, design identities).
std::string hex16(std::uint64_t value);

// Options fingerprints.  `max_errors` rides along with ParseOptions because
// the recovering parsers stop at the sink's error budget, so it changes what
// a permissive parse produces.
std::uint64_t fingerprint(const parser::ParseOptions& options,
                          std::size_t max_errors);
std::uint64_t fingerprint(const wordrec::Options& options);
std::uint64_t fingerprint(const analysis::AnalysisOptions& options);
std::uint64_t fingerprint(const lift::Options& options);

// Degradation policy fingerprint.  The policy changes what a trip *produces*
// (which rung answers), so identify artifacts key on it; deadlines, cancel
// tokens, and checkpoints are observation-only and excluded — an untripped
// deadline must hit the same cache entries as no deadline at all.
std::uint64_t fingerprint(const exec::DegradePolicy& policy);

// Fingerprint of collected diagnostics (severity + message + location per
// entry).  Analysis artifacts that consume parse-time facts key on this.
std::uint64_t fingerprint(const diag::Diagnostics& diags);

// Structural identity of a netlist: name, nets (names + PI/PO markings) and
// gates in file order (type, output, inputs).  Two netlists with equal
// fingerprints produce byte-identical results in every downstream stage.
std::uint64_t netlist_fingerprint(const netlist::Netlist& nl);

}  // namespace netrev::pipeline
