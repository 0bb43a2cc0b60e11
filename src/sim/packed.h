// 64-way bit-parallel netlist evaluation.
//
// A PackedSimulator holds one uint64_t per net; bit `l` of every word is an
// independent simulation lane, so a single pass over the levelized gate
// schedule evaluates 64 (input, state) points at once with plain bitwise
// ops (AND gate = `&`, XOR = `^`, inverting types complement the result).
// There is no per-gate dispatch allocation and no pointer chasing: the
// schedule and the fanin lists are CompactView CSR arrays.
//
// It is the only gate evaluator in the library: sim::sample_random_vectors
// (the functional screen, lift's sampling pass) and lift's per-operator
// verification both run on it.  The scalar Simulator in
// tests/support/simulator.h is its semantics oracle, and the sampling layer
// is arranged so packed output is byte-identical to one scalar Simulator per
// block (the oracle in tests/support/scalar_sampler.h; see sim/sample.h —
// two kRandomSimBlock RNG blocks fill one 64-lane word, each lane drawing
// its stimulus in exactly the scalar order).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compact.h"

namespace netrev::sim {

class PackedSimulator {
 public:
  // Requires an acyclic view (view.acyclic()); the schedule is its
  // levelized comb order.  The view must outlive the simulator.
  explicit PackedSimulator(const netlist::CompactView& view);

  const netlist::CompactView& design() const { return *view_; }

  // Lane-packed access.  `net` must be a primary input (set_input_word) or
  // a flop output (set_state_word); bit l is lane l's value.
  void set_input_word(std::uint32_t net, std::uint64_t lanes);
  void set_state_word(std::uint32_t q_net, std::uint64_t lanes);

  // Recomputes every combinational net across all 64 lanes.
  void eval();

  // Clock edge on every lane: samples each flop's D word, commits it as the
  // new state, re-evaluates.
  void step();

  // Lane-packed value of any net; valid after eval().
  std::uint64_t value_word(std::uint32_t net) const {
    return values_[net];
  }

 private:
  const netlist::CompactView* view_;
  std::vector<std::uint64_t> values_;  // indexed by net id
  std::vector<std::uint64_t> next_state_;  // step() scratch, one per flop
};

}  // namespace netrev::sim
