// Lift verification on the packed engine against the scalar loop it
// replaced.
//
// verify_model evaluates each bit-blasted operator on a PackedSimulator, 64
// sampled vectors per pass with the lanes past the last vector masked off.
// The oracle below is the one-vector-at-a-time loop over the scalar
// Simulator (tests/support/simulator.h), fed by the scalar sampler.  On
// every Table 1 profile, with every other operator of the lifted model
// deliberately corrupted so mismatches are plentiful, both must count the
// same mismatches per operator at vector counts below, at, just past and
// well past one 64-lane word.
#include "lift/verify.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "itc/family.h"
#include "lift/lift.h"
#include "pipeline/session.h"
#include "support/scalar_sampler.h"
#include "support/simulator.h"

namespace netrev::lift {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

// The scalar verification loop: per-operator mismatch counts, one sampled
// vector at a time.
std::vector<std::size_t> scalar_mismatches(const Netlist& nl,
                                           const LiftResult& model,
                                           std::size_t vectors) {
  std::vector<BlastedOp> blasted;
  for (const WordOp& op : model.ops) blasted.push_back(bit_blast(model, op));
  std::vector<NetId> probes;
  std::unordered_map<std::uint32_t, std::size_t> probe_index;
  const auto probe = [&](NetId net) {
    if (probe_index.emplace(net.value(), probes.size()).second)
      probes.push_back(net);
  };
  for (const BlastedOp& blast : blasted) {
    for (const auto& [blasted_net, original] : blast.inputs) probe(original);
    for (const auto& [blasted_net, original] : blast.outputs) probe(original);
  }
  const std::vector<std::uint8_t> samples =
      testing::sample_random_vectors_scalar(nl, probes, vectors, kVerifySeed);

  std::vector<std::size_t> counts;
  for (const BlastedOp& blast : blasted) {
    testing::Simulator sim(blast.nl);
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < vectors; ++v) {
      const auto sample = [&](NetId original) {
        return samples[v * probes.size() + probe_index.at(original.value())] !=
               0;
      };
      for (const auto& [blasted_net, original] : blast.inputs)
        sim.set_input(blasted_net, sample(original));
      sim.eval();
      for (const auto& [blasted_net, original] : blast.outputs)
        if (sim.value(blasted_net) != sample(original)) ++mismatches;
    }
    counts.push_back(mismatches);
  }
  return counts;
}

// A same-arity gate type that computes a different function.
GateType switched(GateType type) {
  switch (type) {
    case GateType::kAnd: return GateType::kOr;
    case GateType::kOr: return GateType::kAnd;
    case GateType::kNand: return GateType::kNor;
    case GateType::kNor: return GateType::kNand;
    case GateType::kXor: return GateType::kXnor;
    case GateType::kXnor: return GateType::kXor;
    case GateType::kBuf: return GateType::kNot;
    default: return GateType::kBuf;  // kNot
  }
}

// Corrupts every other operator in place: flips a constant, swaps a mux's
// operands, switches a bitwise type or flips a load enable's polarity.
// Plain registers and opaque cones have no such knob and stay intact.
// Returns how many operators were changed.
std::size_t corrupt_every_other(LiftResult& model) {
  std::size_t corrupted = 0;
  for (std::size_t i = 1; i < model.ops.size(); i += 2) {
    WordOp& op = model.ops[i];
    switch (op.kind) {
      case OpKind::kConst:
        op.const_value = !op.const_value;
        break;
      case OpKind::kMux2:
        std::swap(op.operands[0], op.operands[1]);
        break;
      case OpKind::kBitwise:
        op.bitwise_type = switched(op.bitwise_type);
        break;
      case OpKind::kLoadRegister:
        op.control.active_high = !op.control.active_high;
        break;
      case OpKind::kRegister:
      case OpKind::kOpaque:
        continue;
    }
    ++corrupted;
  }
  return corrupted;
}

class PackedVerify : public ::testing::TestWithParam<std::string> {};

TEST_P(PackedVerify, MismatchesMatchScalarLoop) {
  Session session;
  const LoadedDesign design = session.load_netlist(GetParam());
  const auto view = session.compact(design);
  Options unchecked;
  unchecked.verify = false;
  LiftResult model = lift_words(design.nl(), *view,
                                session.identify(design)->words, unchecked);
  ASSERT_GT(corrupt_every_other(model), 0u);

  for (const std::size_t vectors : {1, 63, 64, 65, 200}) {
    SCOPED_TRACE(std::to_string(vectors) + " vectors");
    LiftResult checked = model;
    Options options;
    options.verify_vectors = vectors;
    verify_model(*view, checked, options, exec::Checkpoint{});
    const std::vector<std::size_t> expected =
        scalar_mismatches(design.nl(), model, vectors);
    ASSERT_EQ(checked.ops.size(), expected.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(checked.ops[i].mismatches, expected[i])
          << "op " << i << " (" << checked.ops[i].name << ")";
      total += expected[i];
    }
    // A full word of samples exposes the corruptions on every profile.
    if (vectors >= 64) {
      EXPECT_GT(total, 0u) << "the corruptions went unseen";
    }
    EXPECT_EQ(checked.verdict, total == 0 ? "equivalent" : "not_equivalent");
  }
}

std::vector<std::string> table1_profile_names() {
  std::vector<std::string> names;
  for (const auto& profile : itc::itc99s_profiles())
    names.push_back(profile.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Table1Profiles, PackedVerify,
                         ::testing::ValuesIn(table1_profile_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace netrev::lift
