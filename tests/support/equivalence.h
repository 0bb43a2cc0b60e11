// Simulation-based soundness checks for the circuit-reduction machinery.
//
// The reduction step of the paper (§2.5) assumes a control-signal value and
// derives net constants by forward/backward propagation.  These checkers
// validate, by randomized simulation on the scalar Simulator oracle, that
// (a) every derived implication is logically sound, and (b) a materialized
// reduced netlist agrees with the original whenever the assumption holds.
// The reduction, property and fuzz tests use them as oracles.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>

#include "netlist/netlist.h"

namespace netrev::testing {

struct ImplicationCheckResult {
  std::size_t vectors_tried = 0;
  std::size_t vectors_applicable = 0;  // seed assumption held
  std::size_t violations = 0;          // implied value disagreed

  bool ok() const { return violations == 0; }
};

// Samples `vector_count` random (input, state) points.  For each point where
// all `seeds` nets evaluate to their seeded value, verifies that every net in
// `implied` evaluates to its implied value.
ImplicationCheckResult check_implications(
    const netlist::Netlist& nl,
    std::span<const std::pair<netlist::NetId, bool>> seeds,
    const std::unordered_map<netlist::NetId, bool>& implied,
    std::size_t vector_count, std::uint64_t rng_seed);

struct ReductionCheckResult {
  std::size_t vectors_tried = 0;
  std::size_t vectors_applicable = 0;
  std::size_t mismatches = 0;  // a shared net disagreed

  bool ok() const { return mismatches == 0; }
};

// For each sampled point of `original` where the seed assumption holds, drive
// `reduced` with the original's values on the reduced netlist's primary
// inputs and flop outputs (matched by name), and require every net present in
// both designs to carry equal values.
ReductionCheckResult check_reduction_equivalence(
    const netlist::Netlist& original, const netlist::Netlist& reduced,
    std::span<const std::pair<netlist::NetId, bool>> seeds,
    std::size_t vector_count, std::uint64_t rng_seed);

}  // namespace netrev::testing
