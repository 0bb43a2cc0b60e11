#include "rtl/lower_ops.h"

namespace netrev::rtl {

using netlist::GateType;
using netlist::NetId;

NetId emit(NetNamer& namer, const GateSpec& spec) {
  const NetId out = namer.fresh();
  namer.netlist().add_gate(spec.type, out, spec.inputs);
  return out;
}

void emit_onto(NetNamer& namer, NetId output, const GateSpec& spec) {
  namer.netlist().add_gate(spec.type, output, spec.inputs);
}

NetId make_gate(NetNamer& namer, GateType type,
                std::span<const NetId> inputs) {
  GateSpec spec;
  spec.type = type;
  spec.inputs.assign(inputs.begin(), inputs.end());
  return emit(namer, spec);
}

NetId make_not(NetNamer& namer, NetId a) {
  const NetId ins[] = {a};
  return make_gate(namer, GateType::kNot, ins);
}
NetId make_and(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kAnd, ins);
}
NetId make_nand(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kNand, ins);
}
NetId make_or(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kOr, ins);
}
NetId make_nor(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kNor, ins);
}
NetId make_xor(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kXor, ins);
}
NetId make_xnor(NetNamer& namer, NetId a, NetId b) {
  const NetId ins[] = {a, b};
  return make_gate(namer, GateType::kXnor, ins);
}

GateSpec mux2_spec(NetNamer& namer, NetId sel, NetId a, NetId b,
                   NetId not_sel) {
  const NetId n0 = make_nand(namer, a, not_sel);
  const NetId n1 = make_nand(namer, b, sel);
  GateSpec root;
  root.type = GateType::kNand;
  root.inputs = {n0, n1};
  return root;
}

}  // namespace netrev::rtl
