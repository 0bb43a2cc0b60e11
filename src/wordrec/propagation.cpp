#include "wordrec/propagation.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "common/contracts.h"
#include "netlist/compact.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

bool is_constant_net(const CompactView& view, NetId net) {
  const std::uint32_t driver = view.driver(net.value());
  if (driver == CompactView::kNoGate) return false;
  const GateType type = view.gate_type(driver);
  return type == GateType::kConst0 || type == GateType::kConst1;
}

// Canonical-order leaf collection for one subtree.  Children are visited in
// ascending hash-key order, which aligns across structurally-equal subtrees
// of different bits.  Returns nullopt when a node has two children with
// equal keys (alignment would be a guess).
std::optional<std::vector<NetId>> canonical_leaves(const ConeHasher& hasher,
                                                   NetId net,
                                                   std::size_t depth) {
  const CompactView& view = *hasher.options().compact;
  const std::uint32_t driver = view.driver(net.value());
  const bool leaf = driver == CompactView::kNoGate ||
                    view.gate_type(driver) == GateType::kDff ||
                    is_constant_net(view, net) || depth == 0;
  if (leaf) return std::vector<NetId>{net};

  const std::span<const std::uint32_t> inputs = view.fanin(driver);
  std::vector<std::pair<HashKey, NetId>> children;
  children.reserve(inputs.size());
  for (std::uint32_t in : inputs)
    children.emplace_back(hasher.subtree_key(NetId(in), depth - 1), NetId(in));
  std::sort(children.begin(), children.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < children.size(); ++i)
    if (children[i].first == children[i - 1].first) return std::nullopt;

  std::vector<NetId> leaves;
  for (const auto& [key, child] : children) {
    const auto sub = canonical_leaves(hasher, child, depth - 1);
    if (!sub) return std::nullopt;
    leaves.insert(leaves.end(), sub->begin(), sub->end());
  }
  return leaves;
}

// Canonical set key for dedup.
std::vector<NetId> sorted_bits(const Word& word) {
  std::vector<NetId> bits = word.bits;
  std::sort(bits.begin(), bits.end());
  return bits;
}

}  // namespace

WordPropagationResult propagate_words(const Netlist& nl, const WordSet& words,
                                      const Options& options,
                                      std::size_t min_width) {
  NETREV_REQUIRE(min_width >= 2);
  const ConeHasher hasher(nl, options);
  const CompactView& view = *hasher.options().compact;
  const std::size_t subtree_depth =
      options.cone_depth > 0 ? options.cone_depth - 1 : 0;

  WordPropagationResult result;
  std::set<std::vector<NetId>> seen;
  for (const Word& word : words.words)
    if (word.width() >= 2) seen.insert(sorted_bits(word));

  const auto emit = [&](std::vector<NetId> bits,
                        PropagatedWord::Source source, std::size_t position) {
    // All bits distinct, no constants, wide enough.
    std::set<NetId> unique(bits.begin(), bits.end());
    if (unique.size() != bits.size()) return;
    if (bits.size() < min_width) return;
    for (NetId bit : bits)
      if (is_constant_net(view, bit)) return;
    Word candidate;
    candidate.bits = std::move(bits);
    if (!seen.insert(sorted_bits(candidate)).second) return;
    PropagatedWord propagated;
    propagated.word = std::move(candidate);
    propagated.source = source;
    propagated.position = position;
    result.candidates.push_back(std::move(propagated));
  };

  for (const Word& word : words.words) {
    if (word.width() < 2) continue;

    // Signatures must all agree (identified words do by construction).
    std::vector<BitSignature> sigs;
    sigs.reserve(word.width());
    bool aligned = true;
    for (NetId bit : word.bits) {
      sigs.push_back(hasher.signature(bit));
      if (!sigs.front().structurally_equal(sigs.back())) aligned = false;
    }
    if (!aligned || sigs.front().subtrees.empty()) continue;
    ++result.parents_used;

    const std::size_t positions = sigs.front().subtrees.size();
    for (std::size_t p = 0; p < positions; ++p) {
      // Ambiguous position: duplicate keys in the sorted subtree list.
      const auto& key = sigs.front().subtrees[p].key;
      const bool duplicate =
          (p > 0 && sigs.front().subtrees[p - 1].key == key) ||
          (p + 1 < positions && sigs.front().subtrees[p + 1].key == key);
      if (duplicate) {
        ++result.ambiguous_positions;
        continue;
      }

      // Candidate 1: the aligned subtree roots.
      std::vector<NetId> roots;
      roots.reserve(word.width());
      for (const BitSignature& sig : sigs)
        roots.push_back(sig.subtrees[p].root);
      emit(roots, PropagatedWord::Source::kSubtreeRoots, p);

      // Candidate 2..n: the aligned leaves of that subtree.
      std::vector<std::vector<NetId>> leaves_per_bit;
      bool leaves_ok = true;
      for (const BitSignature& sig : sigs) {
        auto leaves =
            canonical_leaves(hasher, sig.subtrees[p].root, subtree_depth);
        if (!leaves) {
          leaves_ok = false;
          break;
        }
        leaves_per_bit.push_back(std::move(*leaves));
      }
      if (!leaves_ok) {
        ++result.ambiguous_positions;
        continue;
      }
      const std::size_t leaf_count = leaves_per_bit.front().size();
      for (const auto& leaves : leaves_per_bit)
        NETREV_ASSERT(leaves.size() == leaf_count &&
                      "equal keys imply equal leaf counts");
      for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
        std::vector<NetId> bits;
        bits.reserve(word.width());
        for (const auto& leaves : leaves_per_bit) bits.push_back(leaves[leaf]);
        emit(bits, PropagatedWord::Source::kAlignedLeaves,
             p * 1000 + leaf);
      }
    }
  }
  return result;
}

WordPropagationResult propagate_words_to_fixpoint(const Netlist& nl,
                                                  const WordSet& words,
                                                  const Options& options,
                                                  std::size_t max_rounds) {
  WordPropagationResult all;
  WordSet frontier = words;
  std::set<std::vector<NetId>> seen;
  for (const Word& word : words.words)
    if (word.width() >= 2) seen.insert(sorted_bits(word));

  for (std::size_t round = 0; round < max_rounds; ++round) {
    WordPropagationResult step = propagate_words(nl, frontier, options);
    all.parents_used += step.parents_used;
    all.ambiguous_positions += step.ambiguous_positions;

    WordSet next;
    for (PropagatedWord& candidate : step.candidates) {
      if (!seen.insert(sorted_bits(candidate.word)).second) continue;
      next.words.push_back(candidate.word);
      all.candidates.push_back(std::move(candidate));
    }
    if (next.words.empty()) break;
    frontier = std::move(next);
  }
  return all;
}

}  // namespace netrev::wordrec
