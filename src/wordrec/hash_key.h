// Structural hash keys (§2.3).
//
// A bit's fanin cone is treeified and canonicalised: each second-level
// subtree (one per fanin of the bit's root gate) becomes a string produced by
// post-order traversal recording gate types, with fanins sorted
// lexicographically — the paper's "hash key" (a Polish-expression style
// canonical form [12]).  Two subtrees are declared structurally similar iff
// their keys are equal.
//
// Every keying function optionally takes an AssignmentMap: the key is then
// computed over the *virtually reduced* cone — assigned nets vanish, gates
// whose live fanin drops to one collapse to BUF/NOT, XOR/XNOR absorb dropped
// constants into their parity — exactly mirroring what reduce.cpp
// materializes (property-tested in tests/wordrec/).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "wordrec/assignment.h"
#include "wordrec/options.h"

namespace netrev::wordrec {

using HashKey = std::string;

// One second-level subtree of a bit: its canonical key plus the net at its
// root (the handle §2.3 stores for dissimilar subtrees).
struct SubtreeKey {
  HashKey key;
  netlist::NetId root;

  friend bool operator==(const SubtreeKey&, const SubtreeKey&) = default;
};

// The matching-relevant summary of one bit's fanin cone: the root gate type
// (level 1) and the keys of its second-level subtrees, sorted by key.
struct BitSignature {
  // Root gate type; nullopt when the bit is undriven or flop-driven (such
  // bits never match anything structurally).
  std::optional<netlist::GateType> root_type;
  std::vector<SubtreeKey> subtrees;  // sorted by key

  bool structurally_equal(const BitSignature& other) const;
};

// Hashes over the CSR arrays of a netlist::CompactView: options.compact
// when the caller passes one (it must be a view of `nl` and outlive the
// hasher), otherwise a view built at construction and shared by copies.
class ConeHasher {
 public:
  ConeHasher(const netlist::Netlist& nl, const Options& options);

  // The caller's options, with `compact` pointing at the view hashed over.
  const Options& options() const { return options_; }

  // Key of the subtree rooted at `net`, exploring `depth` levels of gates.
  // With a non-null assignment, computes the reduced-cone key; a net that is
  // itself assigned yields the constant leaf of its value.
  HashKey subtree_key(netlist::NetId net, std::size_t depth,
                      const AssignmentMap* assignment = nullptr) const;

  // Signature of a candidate bit under cone depth options().cone_depth.
  // With an assignment under which the bit itself becomes constant, the
  // signature has root_type == nullopt.
  BitSignature signature(netlist::NetId bit,
                         const AssignmentMap* assignment = nullptr) const;

 private:
  std::shared_ptr<const netlist::CompactView> owned_view_;
  Options options_;
};

}  // namespace netrev::wordrec
