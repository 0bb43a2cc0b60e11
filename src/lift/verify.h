// Self-verification of a lifted model: bit-blast each operator back to
// gates and prove simulation equivalence against the original cones.
#pragma once

#include "exec/cancel.h"
#include "lift/model.h"
#include "lift/options.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::lift {

// One operator lowered to a standalone gate-level netlist, with explicit
// boundary correspondences back into the source design.  Net names inside
// the blasted netlist are synthetic; equivalence checking goes through the
// mappings, never through name matching.
struct BlastedOp {
  netlist::Netlist nl;
  // (net in blasted netlist, net in original): primary inputs to drive.
  std::vector<std::pair<netlist::NetId, netlist::NetId>> inputs;
  // (net in blasted netlist, net in original): outputs to compare.  For
  // register-family operators the original side is the flop's D net — the
  // next-state function is checked combinationally.
  std::vector<std::pair<netlist::NetId, netlist::NetId>> outputs;
};

// Lowers one operator of `model` through rtl/lower_ops.
BlastedOp bit_blast(const LiftResult& model, const WordOp& op);

// Checks every operator of `model` in place (fills checked / equivalent /
// mismatches) and sets the document verdict.  Samples the original design
// once on `view`, the caller's flattening of it (options.verify_vectors
// vectors, kVerifySeed), then evaluates each blasted operator on a
// PackedSimulator over its own CompactView, 64 sampled vectors per pass:
// an operator's mismatches count every (vector, output bit) pair that
// disagrees with the sample, lanes past the last vector masked off.
void verify_model(const netlist::CompactView& view, LiftResult& model,
                  const Options& options, const exec::Checkpoint& checkpoint);

}  // namespace netrev::lift
