// The scalar reference for sim::sample_random_vectors.
//
// One sim::Simulator per kRandomSimBlock block, one vector at a time, over
// the pointer Netlist: the simple realisation of the sampling contract in
// sim/simulator.h.  tests/sim/test_packed.cpp checks the bit-parallel
// sampler against it byte for byte, and bench/scaling_bench's
// BM_SampleScalar times it as the packed engine's baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace netrev::testing {

// Same contract and bytes as sim::sample_random_vectors.  A cyclic design
// throws sim::levelize's "combinational cycle" error.
std::vector<std::uint8_t> sample_random_vectors_scalar(
    const netlist::Netlist& nl, std::span<const netlist::NetId> probes,
    std::size_t vector_count, std::uint64_t seed);

}  // namespace netrev::testing
