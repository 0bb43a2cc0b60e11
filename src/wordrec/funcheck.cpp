#include "wordrec/funcheck.h"

#include "common/thread_pool.h"
#include "perf/profile.h"
#include "sim/sample.h"

namespace netrev::wordrec {

FunctionalReport functional_sanity(const netlist::CompactView& view,
                                   const Word& word, std::size_t vector_count,
                                   std::uint64_t seed) {
  FunctionalReport report;
  report.vectors = vector_count;
  if (word.bits.empty() || vector_count == 0) return report;

  // Batched random simulation (parallel over fixed vector blocks, identical
  // samples at any job count — see sim::sample_random_vectors).
  const std::vector<std::uint8_t> samples =
      sim::sample_random_vectors(view, word.bits, vector_count, seed);

  const std::size_t w = word.width();
  std::vector<std::uint8_t> first_value(w, 0);
  std::vector<bool> ever_changed(w, false);
  std::vector<std::size_t> equal_count(w * w, 0);

  for (std::size_t v = 0; v < vector_count; ++v) {
    const std::uint8_t* sample = samples.data() + v * w;
    for (std::size_t i = 0; i < w; ++i) {
      if (v == 0)
        first_value[i] = sample[i];
      else if (sample[i] != first_value[i])
        ever_changed[i] = true;
      for (std::size_t j = i + 1; j < w; ++j)
        if (sample[i] == sample[j]) ++equal_count[i * w + j];
    }
  }

  for (std::size_t i = 0; i < w; ++i)
    if (!ever_changed[i]) report.stuck_bits.push_back(i);

  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t j = i + 1; j < w; ++j) {
      // Stuck bits trivially duplicate each other; report them only once
      // (as stuck), not as pairs.
      if (!ever_changed[i] || !ever_changed[j]) continue;
      const std::size_t equal = equal_count[i * w + j];
      if (equal == vector_count)
        report.duplicate_pairs.emplace_back(i, j);
      else if (equal == 0)
        report.complementary_pairs.emplace_back(i, j);
    }
  }
  return report;
}

std::vector<std::size_t> suspicious_words(const netlist::CompactView& view,
                                          const WordSet& words,
                                          std::size_t vector_count,
                                          std::uint64_t seed) {
  // Per-word screening is independent; run words concurrently and keep the
  // flagged list in word order.  Each word's samples depend only on (seed,
  // block index), so the outcome is job-count invariant.  The view is
  // immutable, so every worker shares it.
  std::vector<std::uint8_t> dirty(words.words.size(), 0);
  parallel_for(0, words.words.size(), [&](std::size_t w) {
    perf::ScopedWork work(perf::counter<"stage.funcheck_ns">());
    if (words.words[w].width() < 2) return;
    if (!functional_sanity(view, words.words[w], vector_count, seed).clean())
      dirty[w] = 1;
  });
  std::vector<std::size_t> flagged;
  for (std::size_t w = 0; w < dirty.size(); ++w)
    if (dirty[w] != 0) flagged.push_back(w);
  return flagged;
}

}  // namespace netrev::wordrec
