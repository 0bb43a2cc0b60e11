// Gate vocabulary of the gate-level netlist model.
//
// This matches the cell classes present in the flattened ITC99-style netlists
// the paper analyses: simple combinational cells plus a D flip-flop.  The
// controlling-value machinery here is what §2.5 of the paper relies on: "the
// assigned value to a control signal will be the controlling value to one of
// the logic gates that the control signal is feeding into".
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace netrev::netlist {

enum class GateType : std::uint8_t {
  kBuf,     // 1 input
  kNot,     // 1 input
  kAnd,     // >= 2 inputs
  kNand,    // >= 2 inputs
  kOr,      // >= 2 inputs
  kNor,     // >= 2 inputs
  kXor,     // >= 2 inputs
  kXnor,    // >= 2 inputs
  kDff,     // 1 input (D); clock is implicit
  kConst0,  // 0 inputs
  kConst1,  // 0 inputs
};

inline constexpr int kGateTypeCount = 11;

// Short uppercase mnemonic ("NAND"); stable, used by parser/writer.
std::string_view gate_type_name(GateType type);

// Parse a mnemonic (case-insensitive).  Returns nullopt on unknown names.
std::optional<GateType> gate_type_from_name(std::string_view name);

// Single printable character used inside structural hash keys (§2.3).
char gate_type_code(GateType type);

bool is_combinational(GateType type);

// Inclusive arity bounds for validation.
int min_arity(GateType type);
int max_arity(GateType type);  // returns a large sentinel for n-ary gates

// The input value that forces the gate output regardless of other inputs
// (0 for AND/NAND, 1 for OR/NOR).  nullopt for gates with no controlling
// value (XOR/XNOR/BUF/NOT/DFF/consts).
std::optional<bool> controlling_value(GateType type);

// Output produced when a controlling input is present (requires
// controlling_value(type) to be engaged).
bool controlled_output(GateType type);

}  // namespace netrev::netlist
