// Functional sanity checking of candidate words.
//
// The paper notes that functional techniques "may be applied after words are
// identified using a structural technique to further improve the word
// identification process."  This module implements the cheap end of that
// spectrum: randomized-simulation screening of a candidate word for
// functional degeneracies that structural matching cannot see —
//   * stuck bits (a bit that never changes over sampled stimulus),
//   * duplicate bits (two bits that always carry equal values),
//   * complementary bits (always opposite — typically a re-encoded pair,
//     not two independent bits of one word).
// A clean data word exhibits none of these; control/state registers often
// trip them, which makes the report a useful post-filter and triage signal.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compact.h"
#include "wordrec/word.h"

namespace netrev::wordrec {

struct FunctionalReport {
  std::size_t vectors = 0;
  std::vector<std::size_t> stuck_bits;  // indices into Word::bits
  std::vector<std::pair<std::size_t, std::size_t>> duplicate_pairs;
  std::vector<std::pair<std::size_t, std::size_t>> complementary_pairs;

  bool clean() const {
    return stuck_bits.empty() && duplicate_pairs.empty() &&
           complementary_pairs.empty();
  }
};

// Simulates `vector_count` random (input, state) points on the caller's
// view (the Session's cached artifact; see sim::sample_random_vectors) and
// screens the word.  Deterministic for a given seed.  A cyclic view throws
// the sampler's "combinational cycle" error.
FunctionalReport functional_sanity(const netlist::CompactView& view,
                                   const Word& word,
                                   std::size_t vector_count = 64,
                                   std::uint64_t seed = 0x5EED);

// Screens every multi-bit word of a set; returns indices (into
// words.words) of words whose report is not clean.
std::vector<std::size_t> suspicious_words(const netlist::CompactView& view,
                                          const WordSet& words,
                                          std::size_t vector_count = 64,
                                          std::uint64_t seed = 0x5EED);

}  // namespace netrev::wordrec
