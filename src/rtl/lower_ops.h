// Gate-level construction helpers shared by the ITC99-style benchmark
// forge (itc/wordgen), the scan-chain inserter (rtl/scan) and lift's
// bit-blaster (lift/verify).
//
// A GateSpec is a gate that has not been emitted yet: the forge builds a
// word's operand logic eagerly but holds back the per-bit *root* gates so
// it can emit them on consecutive netlist lines — reproducing the layout
// synthesized netlists exhibit and that the §2.2 grouping pass keys on.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "rtl/netnamer.h"

namespace netrev::rtl {

struct GateSpec {
  netlist::GateType type = netlist::GateType::kBuf;
  std::vector<netlist::NetId> inputs;
};

// Emits the spec into a fresh U-named net; returns the output net.
netlist::NetId emit(NetNamer& namer, const GateSpec& spec);

// Emits the spec driving an existing (already created, undriven) net.
void emit_onto(NetNamer& namer, netlist::NetId output, const GateSpec& spec);

// Convenience immediate-emission builders.
netlist::NetId make_gate(NetNamer& namer, netlist::GateType type,
                         std::span<const netlist::NetId> inputs);
netlist::NetId make_not(NetNamer& namer, netlist::NetId a);
netlist::NetId make_and(NetNamer& namer, netlist::NetId a, netlist::NetId b);
netlist::NetId make_nand(NetNamer& namer, netlist::NetId a, netlist::NetId b);
netlist::NetId make_or(NetNamer& namer, netlist::NetId a, netlist::NetId b);
netlist::NetId make_nor(NetNamer& namer, netlist::NetId a, netlist::NetId b);
netlist::NetId make_xor(NetNamer& namer, netlist::NetId a, netlist::NetId b);
netlist::NetId make_xnor(NetNamer& namer, netlist::NetId a, netlist::NetId b);

// NAND-based 2:1 mux (the structure Figure 1's similar subtrees exhibit):
// emits NAND(a, not_sel) and NAND(b, sel) and returns the *pending* root
// NAND.  The caller supplies `not_sel` so the bits of a word share one
// inverter.
GateSpec mux2_spec(NetNamer& namer, netlist::NetId sel, netlist::NetId a,
                   netlist::NetId b, netlist::NetId not_sel);

}  // namespace netrev::rtl
