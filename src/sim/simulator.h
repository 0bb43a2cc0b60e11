// Two-value cycle-accurate netlist simulator.
//
// Semantics: flip-flop output nets hold the current state; eval() propagates
// primary inputs and state through the combinational logic; step() samples
// every flop's D input and commits it as the new state (a positive clock
// edge).  All nets are readable after eval().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::sim {

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

// Vectors per block of batched random simulation (see below).  The block
// size is part of the deterministic contract — changing it changes which
// stream every vector draws from, and therefore the sampled values.
inline constexpr std::size_t kRandomSimBlock = 32;

// Batched random simulation: evaluates `vector_count` independent random
// (input, state) points on the design and records the value of every net in
// `probes`, vector-major (result[v * probes.size() + i] is probe i under
// vector v).
//
// Vectors are partitioned into fixed blocks of kRandomSimBlock; block b
// draws its stimulus from Rng::stream(seed, b).  Because the block
// decomposition and per-block streams are independent of the job count, the
// returned samples are byte-identical at any --jobs value.  Charges the
// profiler counter "sim_vectors_run".
//
// Bit-parallel: two RNG blocks fill the 64 lanes of one PackedSimulator
// word (lanes 0..31 from stream 2p, 32..63 from stream 2p+1, each lane
// drawing all primary inputs then all flops in the scalar simulator's
// order), so one CSR schedule pass over the view evaluates 64 vectors and
// the output is still bit-for-bit what one scalar Simulator per block
// produces — asserted against the scalar oracle in tests/support/ by
// tests/sim/test_packed.cpp.
//
// The view is the caller's (the Session's cached artifact), so sampling
// never flattens the design itself.  A cyclic view has no levelized
// schedule: that throws analysis::StructuralDefectError ("combinational
// cycle"), an input error rather than a contract violation, because a
// strict load of a cyclic file reaches lift and the functional screen.
std::vector<std::uint8_t> sample_random_vectors(
    const netlist::CompactView& view, std::span<const netlist::NetId> probes,
    std::size_t vector_count, std::uint64_t seed);

}  // namespace netrev::sim
