// Ternary constant-propagation dataflow engine over the gate-level netlist.
//
// The lattice is {⊥, 0, 1, X} ordered ⊥ < 0,1 < X.  ⊥ ("bottom") marks a
// value that was never produced; X is "unknown / either".  The engine
// computes two valuations, both indexed by NetId:
//
//   * `always` — holds at EVERY clock cycle from ANY flop state.  Flip-flop
//     outputs are pinned to X and constants are propagated through the
//     combinational logic to a greatest fixpoint.  Evaluation starts from
//     the all-X valuation and only ever *refines* (X → 0/1), which is a
//     monotone descending iteration on a finite lattice: it terminates even
//     on netlists with combinational cycles (cycle nets simply stay X unless
//     a refined side input forces them), so the engine is safe to run on the
//     broken inputs `netrev lint` accepts.
//
//   * `steady` — a steady-state valuation reached by bounded flop
//     iteration: starting from `always`, each round replaces every flop's
//     output value with the previous round's value of its D input
//     (synchronously), then re-propagates the combinational logic.  A flop
//     whose D conflicts with an already-refined output value (it oscillates)
//     is frozen at X.  Round r's valuation over-approximates every concrete
//     valuation at cycles >= r, so if the iteration converges within
//     `max_iterations` rounds the converged constants hold at every cycle
//     beyond the convergence round — "eventually constant" facts.  If it
//     does not converge, `steady` falls back to `always` (still sound).
//
// Per-flop facts (stuck detection) evaluate each flop's D cone under the
// assumption Q=0 and Q=1; those cone evaluations are independent and run on
// the global ThreadPool with index-addressed result slots, so results are
// byte-identical at any --jobs count.  All loops poll the caller's
// exec::Checkpoint.
//
// The engine reads the caller's netlist::CompactView — in the pipeline, the
// Session's cached artifact, so the dataflow stage shares one flattening of
// the design with every other stage.  View ids are the Netlist's ids, so the
// facts index nets and gates the same way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/cancel.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::analysis {

// Lattice values.  The numeric order is not the lattice order; use
// ternary_join / is_ternary_const.
enum class Ternary : std::uint8_t {
  kBottom = 0,  // never produced (undriven, unreached)
  kZero = 1,
  kOne = 2,
  kX = 3,  // unknown / either
};

// Least upper bound: ⊥ is the identity, 0 ⊔ 1 = X, X absorbs everything.
Ternary ternary_join(Ternary a, Ternary b);

inline bool is_ternary_const(Ternary v) {
  return v == Ternary::kZero || v == Ternary::kOne;
}

// One printable character per value: '_', '0', '1', 'X'.
char ternary_code(Ternary v);

// Per-gate-type transfer function.  ⊥ inputs are treated as X (a net that
// was never produced proves nothing).  DFF transfers as a wire; the engine
// itself never evaluates flops through this (state is handled by the flop
// iteration), but cone evaluators may.
Ternary eval_gate_ternary(netlist::GateType type,
                          std::span<const Ternary> inputs);

struct DataflowOptions {
  // Bound on flop replace-iteration rounds for the steady valuation.
  std::size_t max_iterations = 8;
  // Polled at engine-defined strides; default unarmed checkpoint costs one
  // branch per poll.
  exec::Checkpoint checkpoint;
};

// A flop with provably degenerate next-state behaviour.
struct StuckFlop {
  netlist::GateId flop;
  // D provably equals Q: under the sound `always` valuation, pinning Q=0
  // evaluates D to 0 and pinning Q=1 evaluates D to 1.  The flop can never
  // leave whatever state it powers up in.
  bool holds_state = false;
  // Steady-state constant the flop settles to (kX when it does not settle).
  Ternary settles_to = Ternary::kX;
};

struct DataflowFacts {
  // Valuations indexed by NetId::value(); see the file comment.
  std::vector<Ternary> always;
  std::vector<Ternary> steady;

  // Whether the flop iteration converged within max_iterations, and the
  // number of rounds it used.  When !converged, steady == always.
  bool converged = false;
  std::size_t iterations = 0;

  std::vector<StuckFlop> stuck_flops;  // netlist file order

  bool always_constant(netlist::NetId net) const {
    return net.value() < always.size() && is_ternary_const(always[net.value()]);
  }
  bool steady_constant(netlist::NetId net) const {
    return net.value() < steady.size() && is_ternary_const(steady[net.value()]);
  }

  // Per-net mask of `always_constant`, the form wordrec's candidate pruning
  // consumes (wordrec::Options::constant_nets).
  std::vector<std::uint8_t> constant_mask() const;
};

// Runs the engine over `view` (cyclic views included).  Accumulates its CPU
// time on the "stage.dataflow_ns" profiler counter.
DataflowFacts run_dataflow(const netlist::CompactView& view,
                           const DataflowOptions& options = {});

// Combinational gates in dependency order (a gate after the drivers of its
// inputs), computed with Kahn's algorithm from flop outputs / primary inputs
// / constants: the ready set seeds in gate-id order and readers follow
// fanout() order.  Gates stuck in combinational cycles are appended
// afterwards in gate-id (file) order — the order is a fixpoint-seeding hint,
// not a validity claim, so this never throws on cyclic netlists.
std::vector<netlist::GateId> combinational_order(
    const netlist::CompactView& view);

}  // namespace netrev::analysis
