// Circuit reduction (§2.5): materializes the simplified netlist implied by a
// propagated assignment.  Assigned nets and gates with assigned outputs are
// removed; gates that lose constant inputs shed them; a gate left with a
// single input collapses to a buffer or inverter; logic left floating is
// swept.  The word identifier itself works on virtually-reduced
// hash keys for speed — this materializer exists to hand reduced circuits to
// downstream tools (§2.1) and to cross-check the virtual reduction in tests.
#pragma once

#include "netlist/netlist.h"
#include "wordrec/assignment.h"

namespace netrev::wordrec {

// `assignment` must be a propagation closure over `nl` (see propagate()).
// Net names are preserved; gate order follows the original file order.
netlist::Netlist materialize_reduction(const netlist::Netlist& nl,
                                       const AssignmentMap& assignment);

}  // namespace netrev::wordrec
