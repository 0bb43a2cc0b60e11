#include "support/equivalence.h"

#include "common/rng.h"
#include "support/simulator.h"

namespace netrev::testing {

using netlist::NetId;
using netlist::Netlist;

ImplicationCheckResult check_implications(
    const Netlist& nl, std::span<const std::pair<NetId, bool>> seeds,
    const std::unordered_map<NetId, bool>& implied, std::size_t vector_count,
    std::uint64_t rng_seed) {
  Simulator simulator(nl);
  Rng rng(rng_seed);
  ImplicationCheckResult result;
  for (std::size_t v = 0; v < vector_count; ++v) {
    ++result.vectors_tried;
    simulator.randomize_inputs(rng);
    simulator.randomize_state(rng);
    simulator.eval();
    bool applicable = true;
    for (const auto& [net, value] : seeds) {
      if (simulator.value(net) != value) {
        applicable = false;
        break;
      }
    }
    if (!applicable) continue;
    ++result.vectors_applicable;
    for (const auto& [net, value] : implied)
      if (simulator.value(net) != value) ++result.violations;
  }
  return result;
}

ReductionCheckResult check_reduction_equivalence(
    const Netlist& original, const Netlist& reduced,
    std::span<const std::pair<NetId, bool>> seeds, std::size_t vector_count,
    std::uint64_t rng_seed) {
  Simulator sim_orig(original);
  Simulator sim_red(reduced);
  Rng rng(rng_seed);
  ReductionCheckResult result;

  // Pre-resolve name correspondences.
  struct SharedNet {
    NetId in_original;
    NetId in_reduced;
  };
  std::vector<SharedNet> shared;
  std::vector<SharedNet> reduced_sources;  // reduced PIs / flop outputs
  for (std::size_t i = 0; i < reduced.net_count(); ++i) {
    const NetId red_id = reduced.net_id_at(i);
    const auto orig_id = original.find_net(reduced.net(red_id).name);
    if (!orig_id) continue;
    shared.push_back({*orig_id, red_id});
    if (reduced.net(red_id).is_primary_input ||
        reduced.is_flop_output(red_id))
      reduced_sources.push_back({*orig_id, red_id});
  }

  for (std::size_t v = 0; v < vector_count; ++v) {
    ++result.vectors_tried;
    sim_orig.randomize_inputs(rng);
    sim_orig.randomize_state(rng);
    sim_orig.eval();
    bool applicable = true;
    for (const auto& [net, value] : seeds) {
      if (sim_orig.value(net) != value) {
        applicable = false;
        break;
      }
    }
    if (!applicable) continue;
    ++result.vectors_applicable;

    for (const auto& source : reduced_sources) {
      const bool value = sim_orig.value(source.in_original);
      if (reduced.net(source.in_reduced).is_primary_input)
        sim_red.set_input(source.in_reduced, value);
      else
        sim_red.set_state(source.in_reduced, value);
    }
    sim_red.eval();
    for (const auto& net : shared)
      if (sim_orig.value(net.in_original) != sim_red.value(net.in_reduced))
        ++result.mismatches;
  }
  return result;
}

}  // namespace netrev::testing
