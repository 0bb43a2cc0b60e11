#include "wordrec/matching.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/thread_pool.h"
#include "perf/profile.h"

namespace netrev::wordrec {

using netlist::NetId;

BitMatch compare_bits(const BitSignature& a, const BitSignature& b) {
  perf::Profiler::global().count(perf::counter<"pairs_compared">(), 1);
  perf::Profiler::global().count(perf::counter<"subtrees_diffed">(),
                                 a.subtrees.size() + b.subtrees.size());
  BitMatch match;
  if (!a.root_type.has_value() || !b.root_type.has_value()) return match;
  match.comparable = true;

  // Differing root gate types never match (such bits would not share a
  // potential-bit group in the first place, but subgroup re-checks under
  // reduction can change root types).
  if (*a.root_type != *b.root_type) {
    for (const auto& s : a.subtrees) match.dissimilar_a.push_back(s.root);
    for (const auto& s : b.subtrees) match.dissimilar_b.push_back(s.root);
    return match;
  }

  // Sorted merge over the two key lists; each key is visited once.
  std::size_t i = 0, j = 0;
  std::size_t matched = 0;
  while (i < a.subtrees.size() && j < b.subtrees.size()) {
    const auto& ka = a.subtrees[i].key;
    const auto& kb = b.subtrees[j].key;
    if (ka == kb) {
      ++matched;
      ++i;
      ++j;
    } else if (ka < kb) {
      match.dissimilar_a.push_back(a.subtrees[i].root);
      ++i;
    } else {
      match.dissimilar_b.push_back(b.subtrees[j].root);
      ++j;
    }
  }
  for (; i < a.subtrees.size(); ++i)
    match.dissimilar_a.push_back(a.subtrees[i].root);
  for (; j < b.subtrees.size(); ++j)
    match.dissimilar_b.push_back(b.subtrees[j].root);

  match.full = match.dissimilar_a.empty() && match.dissimilar_b.empty() &&
               !a.subtrees.empty();
  match.partial = !match.full && matched > 0;
  return match;
}

namespace {

void append_unique(std::vector<NetId>& into, const std::vector<NetId>& roots) {
  for (NetId root : roots)
    if (std::find(into.begin(), into.end(), root) == into.end())
      into.push_back(root);
}

}  // namespace

std::vector<Subgroup> form_subgroups(std::span<const NetId> group,
                                     std::span<const BitSignature> signatures,
                                     bool require_full_match) {
  NETREV_REQUIRE(group.size() == signatures.size());
  std::vector<Subgroup> subgroups;
  if (group.empty()) return subgroups;

  // The chaining decision is inherently sequential, but the expensive part —
  // the sorted-merge comparison of each adjacent pair — is not: precompute
  // all group.size()-1 pair matches in parallel (slot k holds the match of
  // bits k-1 and k), then chain serially.  Identical output to the serial
  // loop at any job count.
  std::vector<BitMatch> matches(group.size() > 0 ? group.size() - 1 : 0);
  parallel_for(
      1, group.size(),
      [&](std::size_t k) {
        matches[k - 1] = compare_bits(signatures[k - 1], signatures[k]);
      },
      /*grain=*/8);

  const auto start_subgroup = [&](std::size_t index) {
    Subgroup sg;
    sg.bits.push_back(group[index]);
    sg.dissimilar.emplace_back();
    subgroups.push_back(std::move(sg));
  };

  start_subgroup(0);
  for (std::size_t k = 1; k < group.size(); ++k) {
    const BitMatch& match = matches[k - 1];
    const bool chains =
        require_full_match ? match.full : (match.full || match.partial);
    if (!chains) {
      start_subgroup(k);
      continue;
    }
    Subgroup& sg = subgroups.back();
    // The predecessor's newly-found dissimilar subtrees accumulate onto its
    // entry; the new bit records its own.
    append_unique(sg.dissimilar.back(), match.dissimilar_a);
    sg.bits.push_back(group[k]);
    sg.dissimilar.push_back(match.dissimilar_b);
    if (!match.full) sg.fully_similar = false;
  }
  return subgroups;
}

}  // namespace netrev::wordrec
