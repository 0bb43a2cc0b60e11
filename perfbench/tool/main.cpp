// perfbench_tool gen   --workload W --seed S --dir DIR
// perfbench_tool trace --out DIR --jobs N --entry-jobs M [--script FILE]
//                      DESIGN...
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "tool.h"

namespace {

std::size_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size())
    throw std::invalid_argument(flag + " expects a number, got '" + text + "'");
  return static_cast<std::size_t>(value);
}

int run(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("expected gen or trace");
  const std::string command = argv[1];
  std::string workload, dir;
  std::uint64_t seed = 0;
  perfbench::TraceArgs trace;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = parse_count(arg, value());
    } else if (arg == "--dir") {
      dir = value();
    } else if (arg == "--out") {
      trace.out_dir = value();
    } else if (arg == "--jobs") {
      trace.jobs = parse_count(arg, value());
    } else if (arg == "--entry-jobs") {
      trace.entry_jobs = parse_count(arg, value());
    } else if (arg == "--script") {
      trace.script = value();
    } else if (arg.starts_with("--")) {
      throw std::invalid_argument("unknown flag " + arg);
    } else {
      trace.designs.push_back(arg);
    }
  }
  if (command == "gen") return perfbench::run_gen(workload, seed, dir);
  if (command == "trace") {
    if (trace.out_dir.empty() || trace.jobs == 0 || trace.entry_jobs == 0)
      throw std::invalid_argument("trace needs --out, --jobs and --entry-jobs");
    return perfbench::run_trace(trace);
  }
  throw std::invalid_argument("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_tool: " << error.what() << "\n";
    return 1;
  }
}
