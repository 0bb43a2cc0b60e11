// The synthetic ITC99-style benchmark family b03s..b18s.
//
// Each profile is calibrated to its Table 1 row (see DESIGN.md §3): size
// targets, number of reference words, word widths, and — through the word
// kinds — the Base/Ours outcome mix the paper reports for that benchmark.
#pragma once

#include <string>
#include <vector>

#include "itc/benchgen.h"
#include "itc/profile.h"

namespace netrev::itc {

// All twelve profiles in the paper's row order.
std::vector<BenchmarkProfile> itc99s_profiles();

// The giant scaling family b19s..b21s (~260K, ~1M, and ~2M gates).  These
// exist for performance work — the million-gate identify sweeps in
// BENCH_core.json and the check.sh smoke gate — and have no Table 1 row, so
// they are deliberately NOT part of itc99s_profiles() (the Table 1 harness
// iterates that list).  Resolve them by name via profile_by_name /
// build_benchmark like any other benchmark.
std::vector<BenchmarkProfile> giant_profiles();

// Profile by name ("b03s".."b18s" plus the giants "b19s".."b21s"); throws
// std::invalid_argument on unknown names.
BenchmarkProfile profile_by_name(const std::string& name);

// True when profile_by_name(name) resolves: the one test for whether a
// spec names a built-in benchmark rather than a netlist file.
bool is_profile_name(const std::string& name);

// Convenience: generate one benchmark by name.
GeneratedBenchmark build_benchmark(const std::string& name);

}  // namespace netrev::itc
