// Figure 1 case study: reconstructs the paper's b03 fragment (the 3-bit word
// U215/U216/U217) and walks through §2.1-§2.5 on it:
//   * the shape-hashing baseline cannot group the word (cones only partially
//     similar);
//   * the §2.4 analysis finds exactly the control signals U201 and U221
//     (U223 dropped as dominated);
//   * assigning U221 = 0 removes the dissimilar subtrees of U215 and U216
//     only; assigning U201 = 0 removes all three and the word is identified.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "itc/fig1.h"
#include "wordrec/assignment.h"
#include "wordrec/baseline.h"
#include "wordrec/control.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/matching.h"

using namespace netrev;

namespace {

// True if all three word bits have equal signatures under `map`.
bool bits_fully_similar(const wordrec::ConeHasher& hasher,
                        const std::vector<netlist::NetId>& bits,
                        const wordrec::AssignmentMap* map) {
  const wordrec::BitSignature first = hasher.signature(bits[0], map);
  if (!first.root_type.has_value()) return false;
  for (std::size_t i = 1; i < bits.size(); ++i)
    if (!first.structurally_equal(hasher.signature(bits[i], map)))
      return false;
  return true;
}

// Count of dissimilar subtrees still present across the word bits.
std::size_t dissimilar_count(const wordrec::ConeHasher& hasher,
                             const std::vector<netlist::NetId>& bits,
                             const wordrec::AssignmentMap* map) {
  std::size_t total = 0;
  for (std::size_t i = 0; i + 1 < bits.size(); ++i) {
    const auto match = wordrec::compare_bits(hasher.signature(bits[i], map),
                                             hasher.signature(bits[i + 1], map));
    total += match.dissimilar_a.size() + match.dissimilar_b.size();
  }
  return total;
}

}  // namespace

int main() {
  const itc::Fig1Circuit fig = itc::build_fig1_circuit();
  const netlist::Netlist& nl = fig.netlist;
  const auto name = [&](netlist::NetId id) { return nl.net(id).name.c_str(); };

  std::printf("=== Figure 1 case study (b03 fragment) ===\n");
  std::printf("word bits: %s %s %s\n", name(fig.word_bits[0]),
              name(fig.word_bits[1]), name(fig.word_bits[2]));

  // --- Base (shape hashing) ------------------------------------------------
  const wordrec::Options options;
  const wordrec::WordSet base = wordrec::identify_words_baseline(nl, options);
  bool base_found = false;
  for (const wordrec::Word& word : base.words) {
    if (word.bits.size() < 3) continue;
    bool all = true;
    for (netlist::NetId bit : fig.word_bits) {
      if (std::find(word.bits.begin(), word.bits.end(), bit) ==
          word.bits.end())
        all = false;
    }
    base_found = base_found || all;
  }
  std::printf("\n[Base] shape hashing groups the word: %s (paper: no)\n",
              base_found ? "YES" : "NO");

  // --- §2.3 partial matching -----------------------------------------------
  const wordrec::ConeHasher hasher(nl, options);
  std::printf("[Ours] dissimilar subtrees across adjacent bits: %zu\n",
              dissimilar_count(hasher, fig.word_bits, nullptr));

  // --- §2.4 control-signal discovery ----------------------------------------
  std::vector<netlist::NetId> dissimilar_roots;
  for (std::size_t i = 0; i + 1 < fig.word_bits.size(); ++i) {
    const auto match =
        wordrec::compare_bits(hasher.signature(fig.word_bits[i]),
                              hasher.signature(fig.word_bits[i + 1]));
    for (netlist::NetId r : match.dissimilar_a)
      if (std::find(dissimilar_roots.begin(), dissimilar_roots.end(), r) ==
          dissimilar_roots.end())
        dissimilar_roots.push_back(r);
    for (netlist::NetId r : match.dissimilar_b)
      if (std::find(dissimilar_roots.begin(), dissimilar_roots.end(), r) ==
          dissimilar_roots.end())
        dissimilar_roots.push_back(r);
  }
  const auto signals =
      wordrec::find_relevant_control_signals(nl, dissimilar_roots, options);
  std::printf("[Ours] relevant control signals:");
  for (netlist::NetId s : signals) std::printf(" %s", name(s));
  std::printf("  (paper: U201 U221; U223 dominated)\n");

  // --- §2.5 assignments ------------------------------------------------------
  // Propagation runs over the CompactView the hasher built for the fragment.
  wordrec::AssignmentMap map;
  const auto try_assignment = [&](netlist::NetId signal, bool value) {
    const std::pair<netlist::NetId, bool> seeds[] = {{signal, value}};
    const bool feasible =
        wordrec::propagate(*hasher.options().compact, seeds, map);
    const bool unified =
        feasible && bits_fully_similar(hasher, fig.word_bits, &map);
    std::printf("[Ours] assign %s = %d: feasible=%s, dissimilar left=%zu, "
                "word unified=%s\n",
                name(signal), value ? 1 : 0, feasible ? "yes" : "no",
                dissimilar_count(hasher, fig.word_bits, &map),
                unified ? "YES" : "no");
    return unified;
  };
  const bool u221_unifies = try_assignment(fig.u221, false);
  const bool u201_unifies = try_assignment(fig.u201, false);

  // --- full pipeline ---------------------------------------------------------
  const wordrec::IdentifyResult ours = wordrec::identify_words(nl, options);
  bool ours_found = false;
  for (const wordrec::UnifiedWord& unified : ours.unified) {
    bool all = true;
    for (netlist::NetId bit : fig.word_bits)
      if (std::find(unified.bits.begin(), unified.bits.end(), bit) ==
          unified.bits.end())
        all = false;
    if (!all) continue;
    ours_found = true;
    std::printf("\n[Ours] full pipeline identified the 3-bit word via:");
    for (const auto& [signal, value] : unified.assignment)
      std::printf(" %s=%d", name(signal), value ? 1 : 0);
    std::printf("\n");
  }

  const bool ok = !base_found && !u221_unifies && u201_unifies && ours_found &&
                  signals.size() == 2;
  std::printf("\ncase study reproduces the paper's walk-through: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
