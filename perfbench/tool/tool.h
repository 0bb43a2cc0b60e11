// perfbench_tool: the benchmark's in-process half.  run.py drives it; see
// perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Writes the workload's seeded netlist files and `dir`/manifest.json.
int run_gen(const std::string& workload, std::uint64_t seed,
            const std::string& dir);

struct TraceArgs {
  // Gets spans.jsonl, trace.json, identify_<i>.json, responses.ndjson.
  std::string out_dir;
  std::size_t jobs = 1;            // the workload's job count (nproc)
  std::size_t entry_jobs = 1;      // job count of the per-design layer pass
  std::string script;              // request lines to replay; empty = none
  std::vector<std::string> designs;
};

// The traced in-process run: per-design layer spans, the identify_words
// replay, the jobs sweep, and the serial Executor replay of `script`.
int run_trace(const TraceArgs& args);

}  // namespace perfbench
