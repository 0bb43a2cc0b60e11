// Trojan-hunt scenario: the motivation of the paper's introduction.
//
// A third-party netlist arrives flattened.  We (1) recover words, (2) use the
// recovered words to partition the netlist into word-cone logic vs residue,
// and (3) flag residual logic that reads many word bits but belongs to no
// recovered word cone — the classic footprint of a trigger-style Hardware
// Trojan.  The example plants a small trigger (a wide AND over word bits
// gating a payload XOR on one output) into a family benchmark and shows the
// ranking pulls it out.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "netlist/compact.h"
#include "pipeline/session.h"
#include "rtl/lower_ops.h"
#include "wordrec/identify.h"

using namespace netrev;

namespace {

struct PlantedTrojan {
  netlist::Netlist netlist;
  std::vector<std::string> trojan_nets;  // ground truth for the demo
};

// Rebuilds `source` with a trigger+payload appended.
PlantedTrojan plant_trojan(const netlist::Netlist& source) {
  PlantedTrojan planted;
  netlist::Netlist& nl = planted.netlist;
  nl.set_name(source.name() + "_trojaned");

  // Copy the whole design (names preserved).
  std::vector<netlist::NetId> remap(source.net_count());
  for (std::size_t i = 0; i < source.net_count(); ++i) {
    const auto& net = source.net(source.net_id_at(i));
    remap[i] = nl.add_net(net.name);
    if (net.is_primary_input) nl.mark_primary_input(remap[i]);
  }
  for (netlist::GateId g : source.gates_in_file_order()) {
    const auto& gate = source.gate(g);
    std::vector<netlist::NetId> ins;
    for (netlist::NetId in : gate.inputs) ins.push_back(remap[in.value()]);
    nl.add_gate(gate.type, remap[gate.output.value()], ins);
  }
  for (netlist::NetId po : source.primary_outputs())
    nl.mark_primary_output(remap[po.value()]);

  // Trigger: rare condition over flop outputs of two registers.
  std::vector<netlist::NetId> trigger_taps;
  for (std::size_t i = 0; i < source.net_count() && trigger_taps.size() < 6;
       ++i) {
    const netlist::NetId id = source.net_id_at(i);
    if (source.is_flop_output(id)) trigger_taps.push_back(remap[i]);
  }
  rtl::NetNamer namer(nl, 900000);
  // Rare-event trigger: one wide AND over state bits (all-ones condition).
  const netlist::NetId trigger =
      rtl::make_gate(namer, netlist::GateType::kAnd, trigger_taps);

  // Payload: corrupt the first primary output when triggered.
  const netlist::NetId victim = nl.primary_outputs().front();
  const netlist::NetId payload = rtl::make_xor(namer, victim, trigger);
  const netlist::NetId evil_out = nl.add_net("EVIL_OUT");
  nl.add_gate(netlist::GateType::kBuf, evil_out, {payload});
  nl.mark_primary_output(evil_out);
  nl.mark_primary_output(trigger);  // keep intermediate observable

  planted.trojan_nets = {nl.net(trigger).name, nl.net(payload).name,
                         "EVIL_OUT"};
  return planted;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string bench_name = argc > 1 ? argv[1] : "b08s";
  // load_netlist handles family names and netlist files alike; the planted
  // variant is adopted into the same session so identification runs through
  // the shared artifact cache.
  Session session;
  const LoadedDesign source = session.load_netlist(bench_name);
  PlantedTrojan planted = plant_trojan(source.nl());
  const LoadedDesign design =
      session.adopt_netlist(std::move(planted.netlist));
  const netlist::Netlist& nl = design.nl();

  std::printf("planted a trigger-style trojan into %s (%zu gates)\n",
              bench_name.c_str(), nl.gate_count());

  // Step 1: recover words.
  const auto identified = session.identify(design);
  const wordrec::IdentifyResult& result = *identified;
  std::printf("recovered %zu multi-bit words using %zu control signals\n",
              result.words.count_multibit(),
              result.used_control_signals.size());

  // Step 2: mark every net inside the bounded cone of any multi-bit word,
  // walking the session's cached view of the design.
  const auto view = session.compact(design);
  std::vector<std::uint8_t> word_logic(view->net_count(), 0);
  for (const wordrec::Word& word : result.words.words) {
    if (word.width() < 2) continue;
    for (netlist::NetId bit : word.bits)
      for (std::uint32_t net :
           view->fanin_cone_nets(bit.value(), 4, netlist::local_scratch()))
        word_logic[net] = 1;
  }

  // Step 3: rank residual gates by how many word-classified nets they read.
  struct Suspect {
    netlist::NetId output;
    std::size_t word_fanin = 0;
  };
  std::vector<Suspect> suspects;
  for (std::size_t i = 0; i < nl.gate_count(); ++i) {
    const auto& gate = nl.gate(nl.gate_id_at(i));
    if (gate.type == netlist::GateType::kDff) continue;
    if (word_logic[gate.output.value()]) continue;
    std::size_t hits = 0;
    for (netlist::NetId in : gate.inputs)
      if (nl.is_flop_output(in) || word_logic[in.value()]) ++hits;
    if (hits >= 2) suspects.push_back({gate.output, hits});
  }
  std::sort(suspects.begin(), suspects.end(),
            [](const Suspect& a, const Suspect& b) {
              return a.word_fanin > b.word_fanin;
            });

  std::printf("\ntop residual suspects (gates outside every word cone that "
              "read word/state bits):\n");
  bool trigger_flagged = false;
  for (std::size_t i = 0; i < suspects.size() && i < 8; ++i) {
    const auto& name = nl.net(suspects[i].output).name;
    const bool is_trojan =
        std::find(planted.trojan_nets.begin(), planted.trojan_nets.end(),
                  name) != planted.trojan_nets.end() ||
        name.find("U9000") == 0;
    std::printf("  %-12s reads %zu word/state bits%s\n", name.c_str(),
                suspects[i].word_fanin, is_trojan ? "   <-- planted trojan" : "");
    trigger_flagged = trigger_flagged || is_trojan;
  }
  std::printf("\ntrojan trigger surfaced in top suspects: %s\n",
              trigger_flagged ? "YES" : "NO");
  return trigger_flagged ? 0 : 1;
}
