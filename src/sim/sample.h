// Batched random simulation on the 64-lane PackedSimulator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::sim {

// Vectors per block of batched random simulation (see below).  The block
// size is part of the deterministic contract — changing it changes which
// stream every vector draws from, and therefore the sampled values.
inline constexpr std::size_t kRandomSimBlock = 32;

// Evaluates `vector_count` independent random (input, state) points on the
// design and records the value of every net in `probes`, vector-major
// (result[v * probes.size() + i] is probe i under vector v).
//
// Vectors are partitioned into fixed blocks of kRandomSimBlock; block b
// draws its stimulus from Rng::stream(seed, b), each vector drawing all
// primary inputs (ascending net id) then all flops (view.flop_gates()
// order).  Because the block decomposition and per-block streams are
// independent of the job count, the returned samples are byte-identical at
// any --jobs value.  Charges the profiler counter "sim_vectors_run".
//
// Two RNG blocks fill the 64 lanes of one PackedSimulator word (lanes
// 0..31 from stream 2p, 32..63 from stream 2p+1), so one CSR schedule pass
// over the view evaluates 64 vectors.  The output is bit-for-bit what one
// scalar simulator per block produces — asserted against the scalar oracle
// in tests/support/scalar_sampler.h by tests/sim/test_packed.cpp.
//
// The view is the caller's (the Session's cached artifact), so sampling
// never flattens the design itself.  A cyclic view has no levelized
// schedule: that throws analysis::StructuralDefectError ("combinational
// cycle"), an input error rather than a contract violation, because a
// strict load of a cyclic file reaches lift and the functional screen.
std::vector<std::uint8_t> sample_random_vectors(
    const netlist::CompactView& view, std::span<const netlist::NetId> probes,
    std::size_t vector_count, std::uint64_t seed);

}  // namespace netrev::sim
