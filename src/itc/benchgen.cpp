#include "itc/benchgen.h"

#include <algorithm>

#include "common/contracts.h"
#include "netlist/validate.h"

namespace netrev::itc {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// OR-reduce a chunked set of nets into named primary outputs so no logic is
// left floating.
void reduce_to_outputs(Netlist& nl, rtl::NetNamer& namer,
                       const std::vector<NetId>& nets,
                       const std::string& prefix) {
  constexpr std::size_t kChunk = 8;
  std::size_t output_index = 0;
  for (std::size_t start = 0; start < nets.size(); start += kChunk) {
    const std::size_t end = std::min(nets.size(), start + kChunk);
    const std::size_t n = end - start;
    const NetId out =
        nl.add_net(prefix + "_" + std::to_string(output_index++));
    if (n == 1) {
      nl.add_gate(GateType::kBuf, out, {nets[start]});
    } else {
      std::vector<NetId> ins(nets.begin() + static_cast<std::ptrdiff_t>(start),
                             nets.begin() + static_cast<std::ptrdiff_t>(end));
      nl.add_gate(GateType::kOr, out, ins);
    }
    nl.mark_primary_output(out);
  }
  (void)namer;
}

}  // namespace

GeneratedBenchmark generate_benchmark(const BenchmarkProfile& profile) {
  validate_profile(profile);

  GeneratedBenchmark result;
  result.profile = profile;
  Netlist& nl = result.netlist;
  nl.set_name(profile.name);

  rtl::NetNamer namer(nl, 200);
  Rng rng(profile.seed);

  // Primary inputs: a data/control pool sized with the design.
  const std::size_t pi_count =
      std::max<std::size_t>(16, profile.words.size() / 4 + 12);
  // Every net but a primary input is some gate's output, and the design
  // lands a little over its gate target (output reduction trees), so size
  // the netlist once for that.
  const std::size_t gates_hint =
      profile.target_gates + profile.target_gates / 64;
  nl.reserve(pi_count + gates_hint, gates_hint);
  std::vector<NetId> pis;
  pis.reserve(pi_count);
  for (std::size_t i = 0; i < pi_count; ++i) {
    const NetId pi = nl.add_net("IN" + std::to_string(i));
    nl.mark_primary_input(pi);
    pis.push_back(pi);
  }

  // Pre-create every flop output net so word cones can read register values
  // regardless of emission order (as the real netlists do).
  std::vector<NetId> flop_pool;
  std::vector<std::pair<NetId, const WordPlan*>> word_q_nets;  // per bit
  for (const WordPlan& plan : profile.words) {
    for (std::size_t i = 0; i < plan.width; ++i) {
      const NetId q =
          namer.named(rtl::flop_output_name(plan.name, i, plan.width));
      flop_pool.push_back(q);
      word_q_nets.emplace_back(q, &plan);
    }
  }
  std::vector<NetId> scalar_q_nets;
  for (std::size_t k = 0; k < profile.scalar_registers; ++k)
    scalar_q_nets.push_back(
        namer.named(rtl::flop_output_name("TFLAG" + std::to_string(k), 0, 1)));

  WordForge forge(namer, rng);
  forge.set_pools(flop_pool, pis);

  // --- word blocks with separators ---------------------------------------
  std::vector<std::pair<NetId, NetId>> pending_flops;  // (Q, D)
  std::vector<NetId> decoy_roots;
  std::size_t scalar_index = 0;
  std::size_t decoys_left = profile.decoy_control_words;
  std::size_t q_cursor = 0;

  for (std::size_t wi = 0; wi < profile.words.size(); ++wi) {
    const WordPlan& plan = profile.words[wi];

    forge.emit_filler(4 + rng.next_below(5));

    if (scalar_index < scalar_q_nets.size() && wi % 2 == 0) {
      const NetId q = scalar_q_nets[scalar_index++];
      pending_flops.emplace_back(q, forge.emit_scalar_next(q));
    }
    if (decoys_left > 0 && wi % 3 == 1) {
      --decoys_left;
      EmittedWord decoy = forge.emit_decoy_control_word(
          3 + (decoys_left % 2), profile.words.size() + decoys_left);
      decoy_roots.insert(decoy_roots.end(), decoy.d_nets.begin(),
                         decoy.d_nets.end());
      result.embedded_controls.insert(result.embedded_controls.end(),
                                      decoy.controls_used.begin(),
                                      decoy.controls_used.end());
      // Keep decoy root runs from extending into the word block's NANDs.
      forge.emit_filler(3);
    }

    EmittedWord word = forge.emit_word(plan, wi);
    NETREV_ASSERT(word.d_nets.size() == plan.width);
    for (std::size_t i = 0; i < plan.width; ++i)
      pending_flops.emplace_back(word_q_nets[q_cursor + i].first,
                                 word.d_nets[i]);
    q_cursor += plan.width;
    result.word_bits.emplace(plan.name, std::move(word.d_nets));
    result.embedded_controls.insert(result.embedded_controls.end(),
                                    word.controls_used.begin(),
                                    word.controls_used.end());
  }

  // Remaining scalars and decoys.
  while (scalar_index < scalar_q_nets.size()) {
    const NetId q = scalar_q_nets[scalar_index++];
    pending_flops.emplace_back(q, forge.emit_scalar_next(q));
  }
  while (decoys_left > 0) {
    --decoys_left;
    EmittedWord decoy = forge.emit_decoy_control_word(
        3 + (decoys_left % 2), profile.words.size() + decoys_left);
    decoy_roots.insert(decoy_roots.end(), decoy.d_nets.begin(),
                       decoy.d_nets.end());
    result.embedded_controls.insert(result.embedded_controls.end(),
                                    decoy.controls_used.begin(),
                                    decoy.controls_used.end());
    forge.emit_filler(3);
  }

  // --- size top-up --------------------------------------------------------
  // Fill toward the Table 1 combinational gate target (the flops land on
  // top of this).
  while (nl.gate_count() + pending_flops.size() < profile.target_gates) {
    const std::size_t deficit =
        profile.target_gates - nl.gate_count() - pending_flops.size();
    forge.emit_filler(std::min<std::size_t>(deficit, 400));
  }

  // --- sinks and flops -----------------------------------------------------
  std::vector<NetId> loose = forge.loose_nets();
  loose.insert(loose.end(), decoy_roots.begin(), decoy_roots.end());
  reduce_to_outputs(nl, namer, loose, "TESTO");

  for (const auto& [q, d] : pending_flops)
    nl.add_gate(GateType::kDff, q, {d});

  // Expose unloaded driven nets (word bits no cone happens to read, unread
  // register outputs) as primary outputs, as the real ITC99 netlists do via
  // their port lists.  Without this the designs carry dead logic that the
  // static-analysis engine would rightly flag.
  for (std::size_t i = 0; i < nl.net_count(); ++i) {
    const netlist::NetId id = nl.net_id_at(i);
    const netlist::Net& net = nl.net(id);
    if (net.fanouts.empty() && !net.is_primary_output && !net.is_primary_input)
      nl.mark_primary_output(id);
  }

  // Registers must also be architecturally observable.  The real circuits
  // read every register out through some output cone; this generator's word
  // registers often feed only each other, leaving whole register loops
  // invisible from the ports.  Promote unobservable flop outputs to primary
  // outputs until reverse reachability from the POs (crossing flops) covers
  // the design, so clean benchmarks carry no dead logic.
  while (true) {
    std::vector<bool> live(nl.gate_count(), false);
    std::vector<std::size_t> queue;
    const auto enqueue = [&](NetId net) {
      const auto drv = nl.driver_of(net);
      if (!drv || live[drv->value()]) return;
      live[drv->value()] = true;
      queue.push_back(drv->value());
    };
    for (NetId po : nl.primary_outputs()) enqueue(po);
    while (!queue.empty()) {
      const std::size_t g = queue.back();
      queue.pop_back();
      for (NetId in : nl.gate(nl.gate_id_at(g)).inputs) enqueue(in);
    }
    bool changed = false;
    for (std::size_t g = 0; g < nl.gate_count(); ++g) {
      const netlist::Gate& gate = nl.gate(nl.gate_id_at(g));
      if (live[g] || gate.type != GateType::kDff) continue;
      nl.mark_primary_output(gate.output);
      changed = true;
    }
    if (!changed) break;
  }

  const netlist::ValidationReport report = netlist::validate(nl);
  NETREV_ENSURE(report.ok());
  return result;
}

}  // namespace netrev::itc
