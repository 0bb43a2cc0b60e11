#include "support/scalar_sampler.h"

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "perf/profile.h"
#include "sim/simulator.h"

namespace netrev::testing {

std::vector<std::uint8_t> sample_random_vectors_scalar(
    const netlist::Netlist& nl, std::span<const netlist::NetId> probes,
    std::size_t vector_count, std::uint64_t seed) {
  std::vector<std::uint8_t> samples(vector_count * probes.size(), 0);
  if (vector_count == 0 || probes.empty()) return samples;

  const std::size_t blocks =
      (vector_count + sim::kRandomSimBlock - 1) / sim::kRandomSimBlock;
  parallel_for(0, blocks, [&](std::size_t block) {
    // Private simulator and stream per block: nothing shared but the (const)
    // netlist and disjoint slices of `samples`.
    sim::Simulator simulator(nl);
    Rng rng = Rng::stream(seed, block);
    const std::size_t begin = block * sim::kRandomSimBlock;
    const std::size_t end =
        std::min(begin + sim::kRandomSimBlock, vector_count);
    for (std::size_t v = begin; v < end; ++v) {
      simulator.randomize_inputs(rng);
      simulator.randomize_state(rng);
      simulator.eval();
      std::uint8_t* row = samples.data() + v * probes.size();
      for (std::size_t i = 0; i < probes.size(); ++i)
        row[i] = simulator.value(probes[i]) ? 1 : 0;
    }
    perf::Profiler::global().count("sim_vectors_run", end - begin);
  });
  return samples;
}

}  // namespace netrev::testing
