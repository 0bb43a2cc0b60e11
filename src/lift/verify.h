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
BlastedOp bit_blast(const netlist::Netlist& nl, const LiftResult& model,
                    const WordOp& op);

// Checks every operator of `model` in place (fills checked / equivalent /
// mismatches) and sets the document verdict.  Samples the original design
// once on `view`, the caller's flattening of `nl`, with the packed engine
// (options.verify_vectors vectors, kVerifySeed), then scalar-simulates each
// blasted operator against the samples.
void verify_model(const netlist::Netlist& nl, const netlist::CompactView& view,
                  LiftResult& model, const Options& options,
                  const exec::Checkpoint& checkpoint);

}  // namespace netrev::lift
