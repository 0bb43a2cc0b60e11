#include "netlist/gate_type.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.h"
#include "support/simulator.h"

namespace netrev::netlist {
namespace {

using testing::eval_gate;

std::vector<GateType> all_types() {
  std::vector<GateType> types;
  for (int i = 0; i < kGateTypeCount; ++i)
    types.push_back(static_cast<GateType>(i));
  return types;
}

TEST(GateTypeNames, RoundTripThroughParser) {
  for (GateType type : all_types())
    EXPECT_EQ(gate_type_from_name(gate_type_name(type)), type);
}

TEST(GateTypeNames, ParseIsCaseInsensitive) {
  EXPECT_EQ(gate_type_from_name("nand"), GateType::kNand);
  EXPECT_EQ(gate_type_from_name("Nor"), GateType::kNor);
}

TEST(GateTypeNames, AcceptsVerilogSpellings) {
  EXPECT_EQ(gate_type_from_name("INV"), GateType::kNot);
  EXPECT_EQ(gate_type_from_name("BUFF"), GateType::kBuf);
}

TEST(GateTypeNames, RejectsUnknown) {
  EXPECT_EQ(gate_type_from_name("AOI21"), std::nullopt);
  EXPECT_EQ(gate_type_from_name(""), std::nullopt);
}

TEST(GateTypeCodes, AreUniqueAcrossTypes) {
  std::vector<char> codes;
  for (GateType type : all_types()) codes.push_back(gate_type_code(type));
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(std::adjacent_find(codes.begin(), codes.end()), codes.end());
}

TEST(GateArity, BoundsMatchSemantics) {
  EXPECT_EQ(min_arity(GateType::kConst0), 0);
  EXPECT_EQ(max_arity(GateType::kConst1), 0);
  EXPECT_EQ(min_arity(GateType::kNot), 1);
  EXPECT_EQ(max_arity(GateType::kBuf), 1);
  EXPECT_EQ(min_arity(GateType::kNand), 2);
  EXPECT_GT(max_arity(GateType::kXor), 8);
  EXPECT_EQ(min_arity(GateType::kDff), 1);
}

TEST(ControllingValues, AndFamily) {
  EXPECT_EQ(controlling_value(GateType::kAnd), false);
  EXPECT_EQ(controlling_value(GateType::kNand), false);
  EXPECT_EQ(controlling_value(GateType::kOr), true);
  EXPECT_EQ(controlling_value(GateType::kNor), true);
}

TEST(ControllingValues, AbsentForParityAndUnary) {
  EXPECT_EQ(controlling_value(GateType::kXor), std::nullopt);
  EXPECT_EQ(controlling_value(GateType::kXnor), std::nullopt);
  EXPECT_EQ(controlling_value(GateType::kNot), std::nullopt);
  EXPECT_EQ(controlling_value(GateType::kBuf), std::nullopt);
  EXPECT_EQ(controlling_value(GateType::kDff), std::nullopt);
}

TEST(ControlledOutput, MatchesTruthTables) {
  EXPECT_FALSE(controlled_output(GateType::kAnd));   // 0 in -> 0 out
  EXPECT_TRUE(controlled_output(GateType::kNand));   // 0 in -> 1 out
  EXPECT_TRUE(controlled_output(GateType::kOr));     // 1 in -> 1 out
  EXPECT_FALSE(controlled_output(GateType::kNor));   // 1 in -> 0 out
}

TEST(ControlledOutput, RejectsTypesWithoutControllingValue) {
  EXPECT_THROW(controlled_output(GateType::kXor), ContractViolation);
}

// Exhaustive truth-table check of the eval_gate oracle
// (tests/support/simulator.h) for 2-input gates.
struct TruthCase {
  GateType type;
  bool expect[4];  // indexed by (a<<1)|b
};

class EvalGate2 : public ::testing::TestWithParam<TruthCase> {};

TEST_P(EvalGate2, MatchesTruthTable) {
  const TruthCase& c = GetParam();
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const bool ins[] = {a != 0, b != 0};
      EXPECT_EQ(eval_gate(c.type, ins), c.expect[(a << 1) | b])
          << gate_type_name(c.type) << "(" << a << "," << b << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, EvalGate2,
    ::testing::Values(
        TruthCase{GateType::kAnd, {false, false, false, true}},
        TruthCase{GateType::kNand, {true, true, true, false}},
        TruthCase{GateType::kOr, {false, true, true, true}},
        TruthCase{GateType::kNor, {true, false, false, false}},
        TruthCase{GateType::kXor, {false, true, true, false}},
        TruthCase{GateType::kXnor, {true, false, false, true}}));

TEST(EvalGate, UnaryAndConstants) {
  const bool t[] = {true};
  const bool f[] = {false};
  EXPECT_TRUE(eval_gate(GateType::kBuf, t));
  EXPECT_FALSE(eval_gate(GateType::kNot, t));
  EXPECT_TRUE(eval_gate(GateType::kNot, f));
  EXPECT_TRUE(eval_gate(GateType::kDff, t));
  EXPECT_FALSE(eval_gate(GateType::kConst0, {}));
  EXPECT_TRUE(eval_gate(GateType::kConst1, {}));
}

TEST(EvalGate, WideGates) {
  const bool ins[] = {true, true, false, true};
  EXPECT_FALSE(eval_gate(GateType::kAnd, ins));
  EXPECT_TRUE(eval_gate(GateType::kNand, ins));
  EXPECT_TRUE(eval_gate(GateType::kOr, ins));
  EXPECT_TRUE(eval_gate(GateType::kXor, ins));   // three ones
  EXPECT_FALSE(eval_gate(GateType::kXnor, ins));
}

TEST(EvalGate, RejectsArityViolation) {
  const bool one[] = {true};
  EXPECT_THROW(eval_gate(GateType::kAnd, one), ContractViolation);
}

// Property: controlling value really controls, for every input width.
class ControllingSweep
    : public ::testing::TestWithParam<std::tuple<GateType, int>> {};

TEST_P(ControllingSweep, ControllingInputForcesOutput) {
  const auto [type, width] = GetParam();
  const bool cv = *controlling_value(type);
  std::vector<bool> storage(static_cast<std::size_t>(width));
  // Try every position for the controlling input, other inputs all !cv.
  for (int pos = 0; pos < width; ++pos) {
    for (int i = 0; i < width; ++i) storage[static_cast<std::size_t>(i)] = !cv;
    storage[static_cast<std::size_t>(pos)] = cv;
    std::vector<bool> copy = storage;
    std::unique_ptr<bool[]> raw(new bool[copy.size()]);
    for (std::size_t i = 0; i < copy.size(); ++i) raw[i] = copy[i];
    EXPECT_EQ(eval_gate(type, std::span<const bool>(raw.get(), copy.size())),
              controlled_output(type));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ControllingSweep,
    ::testing::Combine(::testing::Values(GateType::kAnd, GateType::kNand,
                                         GateType::kOr, GateType::kNor),
                       ::testing::Values(2, 3, 4, 7)));

}  // namespace
}  // namespace netrev::netlist
