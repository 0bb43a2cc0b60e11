// The scalar two-value simulator: the semantics oracle for
// sim::PackedSimulator.
//
// Semantics: flip-flop output nets hold the current state; eval() propagates
// primary inputs and state through the combinational logic; step() samples
// every flop's D input and commits it as the new state (a positive clock
// edge).  All nets are readable after eval().  One vector at a time over
// the pointer Netlist, scheduled by the levelize() oracle and evaluated by
// eval_gate(): tests/sim/test_packed.cpp checks each packed lane against
// it, the scalar sampler and the lift verification oracle are built on it,
// and the rtl, reduction and property tests simulate with it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "netlist/gate_type.h"
#include "netlist/netlist.h"

namespace netrev::testing {

// Evaluate the gate over concrete input values.  `inputs` must respect the
// arity bounds.  DFF evaluates as a wire (the simulator handles state).
bool eval_gate(netlist::GateType type, std::span<const bool> inputs);

class Simulator {
 public:
  // Requires a validated netlist (no combinational cycles, no dangling nets).
  explicit Simulator(const netlist::Netlist& nl);

  const netlist::Netlist& design() const { return *nl_; }

  // Primary-input control.  `net` must be a primary input.
  void set_input(netlist::NetId net, bool value);

  // Directly overwrite a flop's state.  `q_net` must be a flop output.
  void set_state(netlist::NetId q_net, bool value);

  void randomize_inputs(Rng& rng);
  void randomize_state(Rng& rng);

  // Recompute all combinational nets from inputs + state.
  void eval();

  // Clock edge: commit D values into flop outputs.  Requires eval() since the
  // last input/state change; step() re-evaluates afterwards.
  void step();

  // Value of any net; valid after eval().
  bool value(netlist::NetId net) const;

 private:
  const netlist::Netlist* nl_;
  std::vector<netlist::GateId> order_;        // combinational gates, topo order
  std::vector<netlist::GateId> flops_;
  std::vector<std::uint8_t> values_;  // indexed by NetId
  // Grow-only scratch input buffer for eval(); raw bools so it can be
  // spanned (std::vector<bool> cannot).
  std::unique_ptr<bool[]> scratch_;
  std::size_t scratch_capacity_ = 0;
};

}  // namespace netrev::testing
