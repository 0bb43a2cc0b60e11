// Quickstart: parse a gate-level netlist, run both word-identification
// techniques, and print the recovered words.
//
//   ./quickstart [netlist.v]
//
// Without an argument it demonstrates the flow on the paper's Figure 1
// circuit: shape hashing (Base) splits the word U215/U216/U217, and the
// control-signal technique (Ours) unifies it under U201=0.
#include <cstdio>
#include <string>

#include "itc/fig1.h"
#include "pipeline/session.h"
#include "wordrec/identify.h"

using namespace netrev;

namespace {

void print_words(const char* label, const wordrec::WordSet& words,
                 const netlist::Netlist& nl) {
  std::printf("\n%s found %zu multi-bit words:\n", label,
              words.count_multibit());
  for (const wordrec::Word& word : words.words) {
    if (word.width() < 2) continue;
    std::printf("  [%zu bits]", word.width());
    for (netlist::NetId bit : word.bits)
      std::printf(" %s", nl.net(bit).name.c_str());
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // One Session fronts the whole pipeline: loading (any format), both
  // identification techniques, and the reference extraction, with results
  // cached by content so repeated calls are free.
  Session session;
  const LoadedDesign design =
      argc > 1 ? session.load_netlist(argv[1])
               : session.adopt_netlist(itc::build_fig1_circuit().netlist);
  const netlist::Netlist& nl = design.nl();
  std::printf("design '%s': %zu gates, %zu nets, %zu flops\n",
              nl.name().c_str(), nl.gate_count(), nl.net_count(),
              nl.flop_count());

  // config().use_baseline selects the technique identify() and run() use.
  session.config().use_baseline = true;
  const eval::TechniqueRun base = session.run(design);
  session.config().use_baseline = false;
  const eval::TechniqueRun ours = session.run(design);

  print_words("shape hashing (Base)", base.words, nl);
  print_words("control-signal identification (Ours)", ours.words, nl);
  std::printf("\nOurs used %zu control signals, %zu reduction trials\n",
              ours.control_signals, ours.stats.reduction_trials);

  const auto reference = session.reference(design);
  if (!reference->words.empty()) {
    std::printf("\ngolden reference (from register names): %zu words\n",
                reference->words.size());
    for (const auto& word : reference->words)
      std::printf("  %s: %zu bits\n", word.register_name.c_str(),
                  word.width());
  }
  return 0;
}
