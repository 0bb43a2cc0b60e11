#include "wordrec/control.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/thread_pool.h"
#include "netlist/compact.h"

namespace netrev::wordrec {

using netlist::CompactView;
using netlist::GateType;
using netlist::local_scratch;
using netlist::NetId;
using netlist::Netlist;

std::vector<NetId> find_relevant_control_signals(
    const Netlist& nl, std::span<const NetId> dissimilar_roots,
    const Options& options, std::vector<std::uint32_t>* region,
    WorkBudget* budget) {
  if (region != nullptr) region->clear();
  if (dissimilar_roots.empty()) return {};

  // Callers without a prebuilt view (library use, unit tests) get one here.
  std::optional<CompactView> local_view;
  if (options.compact == nullptr) local_view.emplace(CompactView::build(nl));
  const CompactView& view =
      options.compact != nullptr ? *options.compact : *local_view;

  // Subtrees span cone levels 2..cone_depth, i.e. depth cone_depth - 1 from
  // their roots.
  const std::size_t subtree_depth =
      options.cone_depth > 0 ? options.cone_depth - 1 : 0;

  // Containment: concatenate the cones (each deduplicated, so a net appears
  // at most once per subtree), sort, and run-length count — a net common to
  // all subtrees appears exactly roots.size() times.  `common` comes out in
  // ascending net order, and so does the region: one entry per run.
  std::vector<std::uint32_t> all;
  for (NetId root : dissimilar_roots) {
    const std::vector<std::uint32_t> cone = view.fanin_cone_nets(
        root.value(), subtree_depth, local_scratch(), budget);
    all.insert(all.end(), cone.begin(), cone.end());
  }
  std::sort(all.begin(), all.end());

  // Dataflow pruning (--use-dataflow): a provably-constant net can never be
  // toggled, so it cannot remove a dissimilar subtree.  Pruned nets are
  // dropped from the *candidate* side but still serve as dominators below,
  // so the surviving list is exactly the default list minus provably-
  // constant nets — the conservative guarantee the knob promises.
  const std::vector<std::uint8_t>* constant_nets =
      options.use_dataflow ? options.constant_nets : nullptr;
  const auto is_pruned = [&](std::uint32_t net) {
    return constant_nets != nullptr && net < constant_nets->size() &&
           (*constant_nets)[net] != 0;
  };
  // The subtree roots themselves are excluded: assigning a root its
  // controlling value constants the bit's root gate away instead of removing
  // the dissimilar subtree.  (With several dissimilar subtrees the roots are
  // per-bit nets and never common anyway; this matters for the degenerate
  // single-subtree case.)
  const auto is_root = [&](std::uint32_t net) {
    return std::find(dissimilar_roots.begin(), dissimilar_roots.end(),
                     NetId(net)) != dissimilar_roots.end();
  };

  std::vector<std::uint32_t> common;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    const std::uint32_t net = all[i];
    const std::size_t count = j - i;
    i = j;
    if (region != nullptr) region->push_back(net);
    if (count != dissimilar_roots.size()) continue;
    if (is_root(net)) continue;
    // A constant is never a useful control signal.
    const std::uint32_t driver = view.driver(net);
    if (driver != CompactView::kNoGate) {
      const GateType type = view.gate_type(driver);
      if (type == GateType::kConst0 || type == GateType::kConst1) continue;
    }
    common.push_back(net);
  }

  // Dominance filter: drop any common net lying in the fanin cone of another
  // common net (unbounded combinational reachability).  Each candidate's
  // dominance test is independent — the quadratic cone-walk loop runs on the
  // pool, with verdicts written to per-index slots and collected in order.
  std::vector<std::uint8_t> dominated(common.size(), 0);
  parallel_for(0, common.size(), [&](std::size_t i) {
    // A pruned candidate needs no dominance cone walks: it is dropped
    // regardless of the verdict (but stays in the j loop as a dominator).
    if (is_pruned(common[i])) {
      dominated[i] = 1;
      return;
    }
    for (std::size_t j = 0; j < common.size(); ++j) {
      if (i == j) continue;
      if (view.in_fanin_cone(common[j], common[i], local_scratch(), budget)) {
        dominated[i] = 1;
        return;
      }
    }
  });
  std::vector<NetId> signals;
  for (std::size_t i = 0; i < common.size(); ++i)
    if (dominated[i] == 0) signals.push_back(NetId(common[i]));

  if (signals.size() > kMaxControlSignalsPerSubgroup)
    signals.resize(kMaxControlSignalsPerSubgroup);
  return signals;
}

std::vector<NetId> find_relevant_control_signals(
    const Netlist& nl, const Subgroup& subgroup, const Options& options,
    std::vector<std::uint32_t>* region, WorkBudget* budget) {
  std::vector<NetId> roots;
  for (const auto& per_bit : subgroup.dissimilar)
    for (NetId root : per_bit)
      if (std::find(roots.begin(), roots.end(), root) == roots.end())
        roots.push_back(root);
  return find_relevant_control_signals(nl, roots, options, region, budget);
}

}  // namespace netrev::wordrec
