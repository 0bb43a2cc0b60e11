// Seeded benchmark inputs: netlist files plus a manifest.
//
// Every design comes from an itc family profile whose seed is mixed with the
// workload seed, so one workload seed always yields the same files and
// planted words, and a different seed yields structurally different designs
// of the same size class.  The program under test only ever sees the
// written files; the manifest (paths, planted words) is for the benchmark's
// own checks.  The serve-mixed request script is made by harness.py.
#include "tool.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "itc/benchgen.h"
#include "itc/family.h"
#include "jsonout/jsonout.h"
#include "parser/bench_parser.h"
#include "parser/verilog_writer.h"

namespace perfbench {
namespace {

using netrev::jsonout::quote;

// The twelve Table 1 profiles, in the paper's row order.
const std::array<const char*, 12> kFamily = {
    "b03s", "b04s", "b05s", "b07s", "b08s", "b11s",
    "b12s", "b13s", "b14s", "b15s", "b17s", "b18s"};

// Mid-size profiles an analyst session opens on serve-mixed.
const std::array<const char*, 4> kServeProfiles = {"b12s", "b14s", "b15s",
                                                   "b17s"};

// serve-mixed: designs in the pool.  A 20 s run at the recorded rate (about
// 80 requests/s, 10 requests per design; harness.request_script) opens
// about 165, so the pool leaves about 2x headroom before the script runs
// out.
constexpr std::size_t kServePool = 320;

struct DesignPlan {
  std::string profile;
  bool verilog = false;
  std::uint64_t index = 0;  // position in the workload's design list
};

struct DesignOut {
  std::string path;
  std::size_t gates = 0;
  std::vector<std::vector<std::string>> planted;  // multi-bit words, by name
};

// Mixes the workload seed and the design's position into the profile seed.
std::uint64_t mixed_seed(std::uint64_t profile_seed, std::uint64_t seed,
                         std::uint64_t index) {
  std::uint64_t state = seed;
  return netrev::Rng::stream(profile_seed ^ netrev::splitmix64(state), index)
      .next_u64();
}

DesignOut write_design(const DesignPlan& plan, std::uint64_t seed,
                       const std::string& dir) {
  netrev::itc::BenchmarkProfile profile =
      netrev::itc::profile_by_name(plan.profile);
  profile.seed = mixed_seed(profile.seed, seed, plan.index);
  const netrev::itc::GeneratedBenchmark bench =
      netrev::itc::generate_benchmark(profile);

  DesignOut out;
  char stem[32];
  std::snprintf(stem, sizeof stem, "d%03llu_%s",
                static_cast<unsigned long long>(plan.index),
                plan.profile.c_str());
  out.path = dir + "/" + stem + (plan.verilog ? ".v" : ".bench");
  if (plan.verilog) {
    netrev::parser::write_verilog_file(bench.netlist, out.path);
  } else {
    netrev::parser::write_bench_file(bench.netlist, out.path);
  }
  out.gates = bench.netlist.gate_count();
  // Ordered by register name so the manifest is byte-stable.
  const std::map<std::string, std::vector<netrev::netlist::NetId>> words(
      bench.word_bits.begin(), bench.word_bits.end());
  for (const auto& [name, bits] : words) {
    if (bits.size() < 2) continue;
    std::vector<std::string> names;
    for (netrev::netlist::NetId bit : bits)
      names.push_back(bench.netlist.net(bit).name);
    out.planted.push_back(std::move(names));
  }
  return out;
}

}  // namespace

int run_gen(const std::string& workload, std::uint64_t seed,
            const std::string& dir) {
  std::vector<DesignPlan> plans;
  if (workload == "giant-identify") {
    plans.push_back({"b19s", false, 0});
  } else if (workload == "family-batch") {
    // Formats alternate by row (fixed, not seeded) so every seed parses the
    // same profiles with the same parser and only the structure varies.
    for (std::size_t i = 0; i < kFamily.size(); ++i)
      plans.push_back({kFamily[i], i % 2 == 1, i});
  } else if (workload == "serve-mixed") {
    // Balanced profile and format mix, so seeds differ in structure, not in
    // how much work a session is.
    for (std::size_t i = 0; i < kServePool; ++i)
      plans.push_back({kServeProfiles[i % kServeProfiles.size()],
                       (i / kServeProfiles.size()) % 2 == 1, i});
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  // Designs are independent, so they are generated on the pool; each is a
  // function of (profile, seed, index) alone, so the files do not depend on
  // the job count.
  std::vector<DesignOut> designs(plans.size());
  netrev::parallel_for(0, plans.size(), [&](std::size_t i) {
    designs[i] = write_design(plans[i], seed, dir);
  });

  std::string json = "{\"workload\":" + quote(workload) +
                     ",\"seed\":" + std::to_string(seed) + ",\"designs\":[";
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const DesignOut& design = designs[i];
    if (i > 0) json += ",";
    json += "{\"path\":" + quote(design.path) +
            ",\"profile\":" + quote(plans[i].profile) +
            ",\"gates\":" + std::to_string(design.gates) + ",\"planted\":[";
    for (std::size_t w = 0; w < design.planted.size(); ++w) {
      json += w > 0 ? ",[" : "[";
      for (std::size_t b = 0; b < design.planted[w].size(); ++b)
        json += (b > 0 ? "," : "") + quote(design.planted[w][b]);
      json += "]";
    }
    json += "]}";
  }
  json += "]}\n";

  const std::string path = dir + "/manifest.json";
  std::ofstream out(path);
  out << json;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  return 0;
}

}  // namespace perfbench
