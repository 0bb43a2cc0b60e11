#include "wordrec/hash_key.h"

#include <algorithm>
#include <memory>

#include "common/contracts.h"
#include "netlist/compact.h"
#include "perf/profile.h"
#include "wordrec/collapse.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

namespace {

// Leaf tokens.  With distinguish_leaf_kinds off, boundary leaves all share a
// token (closer to the paper's gate-types-only keys); constant leaves stay
// distinct because a constant is a genuine structural difference.
char leaf_primary_input(const Options& o) { return o.distinguish_leaf_kinds ? 'p' : '*'; }
char leaf_flop_output(const Options& o) { return o.distinguish_leaf_kinds ? 'f' : '*'; }
char leaf_depth_cut(const Options& o) { return o.distinguish_leaf_kinds ? '_' : '*'; }

}  // namespace

bool BitSignature::structurally_equal(const BitSignature& other) const {
  if (!root_type.has_value() || !other.root_type.has_value()) return false;
  if (*root_type != *other.root_type) return false;
  if (subtrees.size() != other.subtrees.size()) return false;
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    if (subtrees[i].key != other.subtrees[i].key) return false;
  return true;
}

ConeHasher::ConeHasher(const Netlist& nl, const Options& options)
    : options_(options) {
  if (options_.compact == nullptr) {
    owned_view_ = std::make_shared<const CompactView>(CompactView::build(nl));
    options_.compact = owned_view_.get();
  }
  NETREV_REQUIRE(options_.compact->net_count() == nl.net_count());
}

HashKey ConeHasher::subtree_key(NetId net, std::size_t depth,
                                const AssignmentMap* assignment) const {
  // A net assigned by the reduction is a constant leaf.  (Callers normally
  // drop assigned children before recursing; this branch covers direct
  // queries on assigned nets.)
  if (assignment != nullptr) {
    if (const auto v = assignment->value(net)) return std::string(1, *v ? '1' : '0');
  }

  const CompactView& view = *options_.compact;
  const std::uint32_t driver = view.driver(net.value());
  if (driver == CompactView::kNoGate)
    return std::string(1, leaf_primary_input(options_));

  const GateType type = view.gate_type(driver);
  if (type == GateType::kDff) return std::string(1, leaf_flop_output(options_));
  if (type == GateType::kConst0) return "0";
  if (type == GateType::kConst1) return "1";
  if (depth == 0) return std::string(1, leaf_depth_cut(options_));

  // Partition inputs into live and dropped-constant under the assignment.
  const std::span<const std::uint32_t> inputs = view.fanin(driver);
  std::vector<std::uint32_t> live;
  live.reserve(inputs.size());
  bool dropped_parity = false;
  if (assignment == nullptr) {
    live.assign(inputs.begin(), inputs.end());
  } else {
    for (std::uint32_t in : inputs) {
      const auto v = assignment->value(NetId(in));
      if (!v) {
        live.push_back(in);
        continue;
      }
      // Closure property of propagate(): a controlling input would have
      // assigned this gate's output, and the output is unassigned here.
      if (const auto cv = controlling_value(type)) NETREV_ASSERT(*v != *cv);
      dropped_parity = dropped_parity != *v;
    }
  }
  NETREV_ASSERT(!live.empty() &&
                "all-constant gate must have an assigned output");

  const GateType effective =
      (live.size() == inputs.size())
          ? type
          : collapsed_type(type, live.size(), dropped_parity);

  std::vector<HashKey> child_keys;
  child_keys.reserve(live.size());
  for (std::uint32_t in : live)
    child_keys.push_back(subtree_key(NetId(in), depth - 1, assignment));
  std::sort(child_keys.begin(), child_keys.end());

  HashKey key;
  key.reserve(2 + child_keys.size() * 4);
  key += '(';
  for (const HashKey& child : child_keys) key += child;
  key += ')';
  key += gate_type_code(effective);
  return key;
}

BitSignature ConeHasher::signature(NetId bit,
                                   const AssignmentMap* assignment) const {
  perf::Profiler::global().count(perf::counter<"cones_hashed">(), 1);
  BitSignature sig;
  if (assignment != nullptr && assignment->contains(bit)) return sig;

  const CompactView& view = *options_.compact;
  const std::uint32_t driver = view.driver(bit.value());
  if (driver == CompactView::kNoGate) return sig;
  const GateType type = view.gate_type(driver);
  if (type == GateType::kDff) {
    sig.root_type = GateType::kDff;
    return sig;
  }
  if (type == GateType::kConst0 || type == GateType::kConst1) return sig;

  // Live second-level subtree roots under the assignment.
  const std::span<const std::uint32_t> inputs = view.fanin(driver);
  std::vector<std::uint32_t> live;
  bool dropped_parity = false;
  if (assignment == nullptr) {
    live.assign(inputs.begin(), inputs.end());
  } else {
    for (std::uint32_t in : inputs) {
      const auto v = assignment->value(NetId(in));
      if (!v) {
        live.push_back(in);
        continue;
      }
      if (const auto cv = controlling_value(type)) NETREV_ASSERT(*v != *cv);
      dropped_parity = dropped_parity != *v;
    }
  }
  if (live.empty()) return sig;  // would be constant; not a word bit

  sig.root_type = (live.size() == inputs.size())
                      ? type
                      : collapsed_type(type, live.size(), dropped_parity);

  NETREV_REQUIRE(options_.cone_depth >= 1);
  sig.subtrees.reserve(live.size());
  for (std::uint32_t in : live)
    sig.subtrees.push_back(SubtreeKey{
        subtree_key(NetId(in), options_.cone_depth - 1, assignment),
        NetId(in)});
  std::sort(sig.subtrees.begin(), sig.subtrees.end(),
            [](const SubtreeKey& a, const SubtreeKey& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.root < b.root;
            });
  return sig;
}

}  // namespace netrev::wordrec
