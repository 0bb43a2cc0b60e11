// Word-level lifting: turn an identified WordSet into a word-level model.
//
// For every lifted word the engine classifies the shared per-bit driver
// structure into a typed operator — constant, plain register, load-enable
// register (recirculating 2:1 mux, recognized through the same DeMorgan
// normalization the control-domain analysis uses), word mux, or a per-bit
// bitwise gate — and falls back to an opaque operator carrying the verbatim
// fanin cone when no pattern matches.  Operand bit-vectors that coincide
// with another identified word reference that word's signal, so lifted
// operators link up into a dataflow graph over named words.
//
// With Options::verify (the default) every operator is then bit-blasted
// back to gates with rtl/lower_ops and checked for simulation equivalence
// against the original netlist (packed sampling of the caller's CompactView
// of the source — the Session's cached one — and scalar simulation of each
// blasted operator); the verdict is recorded per operator and summarized on
// the document.
//
// Everything is deterministic: words in WordSet order, bits in word order,
// cones in file order, fixed-seed block-structured sampling.  Charges the
// profiler counter "stage.lift_ns".
#pragma once

#include "exec/cancel.h"
#include "lift/model.h"
#include "lift/options.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"
#include "wordrec/word.h"

namespace netrev::lift {

// `view` is a flattening of `nl` (CompactView::build or Session::compact).
// Requires a validated netlist when options.verify is set (the simulators
// reject combinational cycles and dangling nets).
LiftResult lift_words(const netlist::Netlist& nl,
                      const netlist::CompactView& view,
                      const wordrec::WordSet& words,
                      const Options& options = {},
                      const exec::Checkpoint& checkpoint = {});

}  // namespace netrev::lift
