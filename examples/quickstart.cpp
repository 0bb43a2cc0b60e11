// Quickstart: parse a gate-level netlist, run both word-identification
// techniques, and print the recovered words.
//
//   ./quickstart [netlist.v]
//
// Without an argument it demonstrates the flow on a small built-in design
// (an RTL module synthesized on the spot).
#include <cstdio>
#include <string>

#include "pipeline/session.h"
#include "rtl/module.h"
#include "rtl/synth.h"
#include "wordrec/identify.h"

using namespace netrev;

namespace {

// A small design: two 8-bit registers, one muxed between an input and the
// other's value, one accumulating.
netlist::Netlist demo_design() {
  rtl::Module module("quickstart_demo");
  const auto din = module.add_input("DIN", 8);
  const auto load = module.add_input("LOAD", 1);
  const auto hold = module.add_register("HOLD", 8);
  const auto acc = module.add_register("ACC", 8);
  module.set_next("HOLD", rtl::mux(load, hold, din));
  module.set_next("ACC", rtl::add(acc, hold));
  module.add_output("DOUT", acc);
  return rtl::synthesize(module).netlist;
}

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
  const LoadedDesign design = argc > 1 ? session.load_netlist(argv[1])
                                       : session.adopt_netlist(demo_design());
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
