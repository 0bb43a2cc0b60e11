// Regenerates Table 1 of the paper: for every benchmark of the synthetic
// ITC99-style family, runs the shape-hashing baseline [6] ("Base") and the
// proposed control-signal-driven identifier ("Ours"), evaluates both against
// the golden register-name reference, and prints the table plus the
// paper-vs-measured qualitative checks recorded in EXPERIMENTS.md.
//
// Usage: table1_main [benchmark ...]   (default: all twelve)
#include <cstdio>
#include <string>
#include <vector>

#include "eval/table.h"
#include "itc/family.h"
#include "pipeline/session.h"

namespace {

using netrev::eval::Table1Row;

// Both techniques run under one session, as `netrev table` runs them.
Table1Row run_benchmark(netrev::Session& session, const std::string& name) {
  const netrev::LoadedDesign design = session.load_netlist(name);
  const auto reference = session.reference(design);
  session.config().use_baseline = true;
  const netrev::eval::TechniqueRun base = session.run(design);
  session.config().use_baseline = false;
  const netrev::eval::TechniqueRun ours = session.run(design);
  return make_row(name, design.nl(), *reference, base, ours);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
  } else {
    for (const auto& profile : netrev::itc::itc99s_profiles())
      names.push_back(profile.name);
  }

  netrev::Session session;
  std::vector<Table1Row> rows;
  rows.reserve(names.size());
  for (const std::string& name : names) {
    std::fprintf(stderr, "running %s...\n", name.c_str());
    rows.push_back(run_benchmark(session, name));
  }

  std::printf("Table 1: word identification, Base (shape hashing [6]) vs "
              "Ours (control-signal reduction)\n\n%s\n",
              netrev::eval::render_table1(rows).c_str());

  // Qualitative checks the paper's text claims; exit nonzero if violated so
  // CI catches regressions in the reproduction.
  int violations = 0;
  for (const Table1Row& row : rows) {
    if (row.ours.full_pct + 1e-9 < row.base.full_pct) {
      std::printf("VIOLATION: %s: Ours finds fewer full words than Base\n",
                  row.benchmark.c_str());
      ++violations;
    }
    if (row.ours.not_found_pct > row.base.not_found_pct + 1e-9) {
      std::printf("VIOLATION: %s: Ours leaves more words not-found than Base\n",
                  row.benchmark.c_str());
      ++violations;
    }
  }
  const Table1Row avg = netrev::eval::average_row(rows);
  std::printf("claims: avg full-found  Base %.2f%%  Ours %.2f%%  (paper: "
              "61.54%% vs 71.89%%)\n",
              avg.base.full_pct, avg.ours.full_pct);
  std::printf("claims: avg not-found   Base %.2f%%  Ours %.2f%%  (paper: "
              "11.25%% vs 8.67%%)\n",
              avg.base.not_found_pct, avg.ours.not_found_pct);
  std::printf("claims: avg frag        Base %.3f  Ours %.3f  (paper: 0.381 vs "
              "0.213)\n",
              avg.base.fragmentation, avg.ours.fragmentation);
  if (violations != 0) {
    std::printf("%d qualitative violation(s)\n", violations);
    return 1;
  }
  std::printf("all qualitative claims hold\n");
  return 0;
}
