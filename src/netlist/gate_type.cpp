#include "netlist/gate_type.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "common/contracts.h"

namespace netrev::netlist {

std::string_view gate_type_name(GateType type) {
  switch (type) {
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kDff: return "DFF";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return {};
}

std::optional<GateType> gate_type_from_name(std::string_view name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (int i = 0; i < kGateTypeCount; ++i) {
    const auto type = static_cast<GateType>(i);
    if (upper == gate_type_name(type)) return type;
  }
  // Accept the common Verilog primitive spellings too.
  if (upper == "INV") return GateType::kNot;
  if (upper == "BUFF") return GateType::kBuf;
  return std::nullopt;
}

char gate_type_code(GateType type) {
  switch (type) {
    case GateType::kBuf: return 'B';
    case GateType::kNot: return 'I';
    case GateType::kAnd: return 'A';
    case GateType::kNand: return 'N';
    case GateType::kOr: return 'O';
    case GateType::kNor: return 'R';
    case GateType::kXor: return 'X';
    case GateType::kXnor: return 'Y';
    case GateType::kDff: return 'D';
    case GateType::kConst0: return '0';
    case GateType::kConst1: return '1';
  }
  NETREV_ASSERT(false && "unreachable gate type");
  return '?';
}

bool is_combinational(GateType type) {
  return type != GateType::kDff;
}

int min_arity(GateType type) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 2;
  }
}

int max_arity(GateType type) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1: return 0;
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff: return 1;
    default: return 1 << 16;  // n-ary; bounded only for sanity
  }
}

std::optional<bool> controlling_value(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand: return false;
    case GateType::kOr:
    case GateType::kNor: return true;
    default: return std::nullopt;
  }
}

bool controlled_output(GateType type) {
  switch (type) {
    case GateType::kAnd: return false;   // controlling 0 -> output 0
    case GateType::kNand: return true;   // controlling 0 -> output 1
    case GateType::kOr: return true;     // controlling 1 -> output 1
    case GateType::kNor: return false;   // controlling 1 -> output 0
    default:
      NETREV_REQUIRE(false && "gate has no controlling value");
      return false;
  }
}

}  // namespace netrev::netlist
