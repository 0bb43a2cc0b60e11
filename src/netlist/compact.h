// CompactView — the flat, data-oriented image of a Netlist.
//
// The pointer/string representation in netlist.h is the construction and
// mutation surface; CompactView is the *analysis* surface.  One build pass
// flattens the whole design into struct-of-arrays form — 32-bit gate/net
// ids, CSR (compressed sparse row) fanin and fanout adjacency, one shared
// name arena — so the hot traversals (cone walks, levelization, dominator
// filtering, dataflow transfer loops, bit-parallel simulation) iterate
// cache-linear arrays instead of chasing per-gate heap vectors and hashing
// strings.  The view is immutable and self-contained: it copies everything
// it needs, holds no reference to the source Netlist, and is therefore safe
// to cache as a Session artifact keyed by the design's identity.
//
// Invalidation rule: a CompactView describes the Netlist *as of the build*.
// Any mutation (add_net/add_gate/mark_*) invalidates every outstanding view
// of that netlist; rebuild after mutating.  The pipeline never mutates a
// loaded design, so one build per design identity suffices.
//
// Determinism contract: the CSR traversals below visit nets in exactly the
// order the pointer-netlist walks in tests/support/cone_oracle.h do, and
// charge an attached WorkBudget in exactly the same sequence — including
// which walk trips a resource limit.  Those walks are the simple reference
// tests/netlist/test_compact.cpp checks these against; src/ walks, samples
// and levelizes only the view.  A Session builds one view per design (the
// "compact" artifact) and every stage — identify, dataflow, lint, lift, the
// functional screen, dot — reads that one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/resource_guard.h"
#include "netlist/gate_type.h"
#include "netlist/netlist.h"

namespace netrev::netlist {

// Reusable visited-stamp scratch for CSR traversals.  A walk bumps the
// epoch instead of clearing the whole array, so repeated cone walks on one
// thread cost O(visited), not O(nets).  Not thread-safe: use one scratch
// per thread (walks on pool workers each bring their own, usually
// local_scratch()).
class ConeScratch {
 public:
  // Prepares for a walk over a universe of `size` ids and returns the fresh
  // epoch.  Amortized O(1): the stamp array is grown once and reset only on
  // epoch wrap-around.
  void begin(std::size_t size) {
    if (stamp_.size() < size) stamp_.resize(size, 0);
    if (++epoch_ == 0) {  // wrapped: all stale stamps must die
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  // Marks `id` visited; true if it was not yet visited this epoch.
  bool mark(std::uint32_t id) {
    if (stamp_[id] == epoch_) return false;
    stamp_[id] = epoch_;
    return true;
  }

  bool marked(std::uint32_t id) const { return stamp_[id] == epoch_; }

  // Shared traversal worklist (cleared per walk; reuses capacity).
  std::vector<std::uint32_t>& worklist() { return worklist_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> worklist_;
};

// The calling thread's scratch, kept for the thread's lifetime: walks made
// serially on a group worker and walks fanned out over the pool each find
// their own stamps, with no clearing between walks.  A walk must finish
// before the next one on the same thread begins.
ConeScratch& local_scratch();

class CompactView {
 public:
  static constexpr std::uint32_t kNoGate = 0xFFFFFFFFu;

  // Net flag bits (net_flags()).
  static constexpr std::uint8_t kPrimaryInput = 1u << 0;
  static constexpr std::uint8_t kPrimaryOutput = 1u << 1;
  static constexpr std::uint8_t kFlopOutput = 1u << 2;
  static constexpr std::uint8_t kFeedsFlop = 1u << 3;

  // One flattening pass over the netlist; O(nets + gates + edges + name
  // bytes).  Never throws on combinational cycles — acyclic() reports
  // whether the levelized orders below exist.
  static CompactView build(const Netlist& nl);

  CompactView() = default;

  std::uint32_t net_count() const {
    return static_cast<std::uint32_t>(net_driver_.size());
  }
  std::uint32_t gate_count() const {
    return static_cast<std::uint32_t>(gate_type_.size());
  }

  // --- gates ---------------------------------------------------------------

  GateType gate_type(std::uint32_t gate) const { return gate_type_[gate]; }
  std::uint32_t gate_output(std::uint32_t gate) const {
    return gate_output_[gate];
  }
  // Fanin net ids of `gate`, in declaration order (same as Gate::inputs).
  std::span<const std::uint32_t> fanin(std::uint32_t gate) const {
    return {fanin_.data() + fanin_offset_[gate],
            fanin_offset_[gate + 1] - fanin_offset_[gate]};
  }

  // --- nets ----------------------------------------------------------------

  // Driving gate id, or kNoGate for primary inputs / dangling nets.
  std::uint32_t driver(std::uint32_t net) const { return net_driver_[net]; }
  // Reader gate ids, in the order gates were added (same as Net::fanouts).
  std::span<const std::uint32_t> fanout(std::uint32_t net) const {
    return {fanout_.data() + fanout_offset_[net],
            fanout_offset_[net + 1] - fanout_offset_[net]};
  }
  std::uint8_t net_flags(std::uint32_t net) const { return net_flags_[net]; }
  bool is_primary_input(std::uint32_t net) const {
    return (net_flags_[net] & kPrimaryInput) != 0;
  }
  bool is_primary_output(std::uint32_t net) const {
    return (net_flags_[net] & kPrimaryOutput) != 0;
  }
  bool is_flop_output(std::uint32_t net) const {
    return (net_flags_[net] & kFlopOutput) != 0;
  }
  bool feeds_flop(std::uint32_t net) const {
    return (net_flags_[net] & kFeedsFlop) != 0;
  }
  // Interned name (view into the arena; valid for the view's lifetime).
  // Ids are the only currency inside the core; names exist solely at the
  // reporting boundary.
  std::string_view net_name(std::uint32_t net) const {
    return std::string_view(name_arena_)
        .substr(name_offset_[net], name_offset_[net + 1] - name_offset_[net]);
  }

  // --- levelization --------------------------------------------------------

  // False when the combinational logic is cyclic; the order spans below are
  // then empty (lint still works off the adjacency arrays).
  bool acyclic() const { return acyclic_; }
  // All gates in evaluation order — bit-for-bit the order sim::levelize()
  // returns (the scalar simulator's contract).
  std::span<const std::uint32_t> topo_order() const { return topo_order_; }
  // topo_order() minus flops: the combinational evaluation schedule.
  std::span<const std::uint32_t> comb_order() const { return comb_order_; }
  // DFF gate ids in topo order — the order the scalar simulator samples and
  // randomizes state in (bit-parallel stimulus must draw in this order to
  // stay byte-identical).
  std::span<const std::uint32_t> flop_gates() const { return flop_gates_; }
  // Net ids, ascending (same order as Netlist::primary_inputs()).
  std::span<const std::uint32_t> primary_inputs() const {
    return primary_inputs_;
  }
  std::span<const std::uint32_t> primary_outputs() const {
    return primary_outputs_;
  }

  // Total heap footprint of the view (the docs/PERFORMANCE.md
  // bytes-per-gate table is computed from this).
  std::size_t memory_bytes() const;

  // --- CSR cone walks ------------------------------------------------------
  //
  // Same results as the reference walks in tests/support/cone_oracle.h:
  // same visit order, same dedup semantics, same one-charge-per-visited-net
  // budget sequence.  `scratch` carries the visited stamps and the worklist;
  // one scratch per thread.

  // Bounded-depth backward BFS from `root` (included, depth 0), stopping at
  // flop outputs / primary inputs; deterministic BFS order, deduplicated.
  std::vector<std::uint32_t> fanin_cone_nets(std::uint32_t root,
                                             std::size_t max_depth,
                                             ConeScratch& scratch,
                                             WorkBudget* budget = nullptr) const;

  // True iff `candidate` lies in the unbounded combinational fanin cone of
  // `root` (root excluded).  Early-exit DFS.
  bool in_fanin_cone(std::uint32_t root, std::uint32_t candidate,
                     ConeScratch& scratch, WorkBudget* budget = nullptr) const;

 private:
  // True if a walk may expand through this net's driver (combinational,
  // non-flop driver).
  bool expandable(std::uint32_t net) const {
    const std::uint32_t gate = net_driver_[net];
    return gate != kNoGate && gate_type_[gate] != GateType::kDff;
  }

  // Gates (SoA).
  std::vector<GateType> gate_type_;
  std::vector<std::uint32_t> gate_output_;
  std::vector<std::uint32_t> fanin_offset_;  // gate_count()+1
  std::vector<std::uint32_t> fanin_;         // flat net ids

  // Nets (SoA).
  std::vector<std::uint32_t> net_driver_;
  std::vector<std::uint32_t> fanout_offset_;  // net_count()+1
  std::vector<std::uint32_t> fanout_;         // flat gate ids
  std::vector<std::uint8_t> net_flags_;

  // Interned names.
  std::string name_arena_;
  std::vector<std::uint32_t> name_offset_;  // net_count()+1

  // Levelization.
  bool acyclic_ = true;
  std::vector<std::uint32_t> topo_order_;
  std::vector<std::uint32_t> comb_order_;
  std::vector<std::uint32_t> flop_gates_;
  std::vector<std::uint32_t> primary_inputs_;
  std::vector<std::uint32_t> primary_outputs_;
};

}  // namespace netrev::netlist
