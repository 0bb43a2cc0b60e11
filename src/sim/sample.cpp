#include "sim/sample.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "perf/profile.h"
#include "sim/packed.h"

namespace netrev::sim {

using netlist::NetId;

std::vector<std::uint8_t> sample_random_vectors(
    const netlist::CompactView& view, std::span<const NetId> probes,
    std::size_t vector_count, std::uint64_t seed) {
  std::vector<std::uint8_t> samples(vector_count * probes.size(), 0);
  if (vector_count == 0 || probes.empty()) return samples;
  if (!view.acyclic())
    throw analysis::StructuralDefectError(
        "random simulation: combinational cycle in the design (run 'netrev "
        "lint' for the full report, or load with --permissive to break "
        "cycles)");

  // Each 64-lane word covers a fixed run of RNG blocks; the block size and
  // per-block streams are the scalar oracle's, so the stimulus — and
  // therefore every sample byte — is identical to it at any --jobs value.
  static_assert(64 % kRandomSimBlock == 0);
  constexpr std::size_t kBlocksPerWord = 64 / kRandomSimBlock;
  const auto inputs = view.primary_inputs();
  const auto flops = view.flop_gates();
  const std::size_t words = (vector_count + 63) / 64;
  parallel_for(0, words, [&](std::size_t word_index) {
    PackedSimulator simulator(view);
    std::vector<std::uint64_t> in_words(inputs.size(), 0);
    std::vector<std::uint64_t> state_words(flops.size(), 0);
    const std::size_t word_begin = word_index * 64;
    const std::size_t word_end = std::min(word_begin + 64, vector_count);
    // Lane l is vector word_begin + l.  Every lane draws its stimulus in
    // the scalar order (all primary inputs, then all flops in flop_gates()
    // order) from the block stream the scalar path would use.
    for (std::size_t half = 0; half < kBlocksPerWord; ++half) {
      const std::size_t block = word_index * kBlocksPerWord + half;
      const std::size_t begin = block * kRandomSimBlock;
      const std::size_t end = std::min(begin + kRandomSimBlock, vector_count);
      if (begin >= end) break;
      Rng rng = Rng::stream(seed, block);
      for (std::size_t v = begin; v < end; ++v) {
        const std::uint64_t bit = std::uint64_t{1} << (v - word_begin);
        for (std::size_t i = 0; i < inputs.size(); ++i)
          if (rng.next_bool()) in_words[i] |= bit;
        for (std::size_t i = 0; i < flops.size(); ++i)
          if (rng.next_bool()) state_words[i] |= bit;
      }
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
      simulator.set_input_word(inputs[i], in_words[i]);
    for (std::size_t i = 0; i < flops.size(); ++i)
      simulator.set_state_word(view.gate_output(flops[i]), state_words[i]);
    simulator.eval();
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::uint64_t word = simulator.value_word(probes[i].value());
      for (std::size_t v = word_begin; v < word_end; ++v)
        samples[v * probes.size() + i] =
            static_cast<std::uint8_t>((word >> (v - word_begin)) & 1);
    }
    perf::Profiler::global().count(perf::counter<"sim_vectors_run">(),
                                   word_end - word_begin);
  });
  return samples;
}

}  // namespace netrev::sim
