// Constant assignment and its propagation closure (§2.5).
//
// Given seed assignments to control signals, values are propagated "forward
// and backwards throughout the netlist": forward when a controlling input or
// a fully-assigned input set determines a gate output; backward when an
// assigned output forces its inputs (e.g. NAND output 0 forces all inputs
// to 1).  Propagation never crosses flip-flops: an assignment models a
// single-cycle combinational condition.
//
// The resulting AssignmentMap is closed under forward propagation — a
// property the virtual-reduction hashing in hash_key.cpp and the netlist
// materializer in reduce.cpp both rely on: if any input of a gate holds its
// controlling value, the gate's output is in the map too.
//
// Two engines compute the same closure.  The CSR engine,
// propagate(const CompactView&, seeds, out), is the one the pipeline runs:
// every reduction trial (through the trial table, which extends closures
// with propagate_more), `netrev reduce` and the examples.  The pointer
// engine, propagate(const Netlist&, seeds), is the simple reference, the
// role tests/support/cone_oracle.h plays for the CSR cone walks: the
// differential tests check the CSR engine against it, and perfbench's
// traced replay calls it.  The two keep separate rule code on purpose, so a
// rule bug cannot hide in both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::wordrec {

// Net -> constant value, dense over net ids: one 32-bit slot per net holding
// `epoch << 1 | value`, plus the entries in assignment order.  reset()
// forgets every value in O(1) by bumping the epoch, so one map serves any
// number of propagations.  Each instance costs 4 bytes per net of the
// largest design it has seen (1 MB on b19s): reuse one per thread rather
// than holding many.
class AssignmentMap {
 public:
  using Entry = std::pair<netlist::NetId, bool>;

  AssignmentMap() = default;

  // Forgets every value and sizes the slots for `net_count` nets.  The slots
  // are cleared only when the epoch wraps.
  void reset(std::size_t net_count) {
    entries_.clear();
    if (slots_.size() < net_count) slots_.resize(net_count, 0);
    if (++epoch_ > kMaxEpoch) {
      std::fill(slots_.begin(), slots_.end(), 0);
      epoch_ = 1;
    }
  }

  // Returns false if the net already holds the opposite value (conflict).
  // Grows the slots when `net` lies beyond them, so hand-built maps need no
  // reset().
  bool assign(netlist::NetId net, bool value) {
    const std::uint32_t id = net.value();
    if (id >= slots_.size()) slots_.resize(std::size_t{id} + 1, 0);
    const std::uint32_t slot = slots_[id];
    if ((slot >> 1) == epoch_) return (slot & 1u) == (value ? 1u : 0u);
    slots_[id] = epoch_ << 1 | (value ? 1u : 0u);
    entries_.emplace_back(net, value);
    return true;
  }

  std::optional<bool> value(netlist::NetId net) const {
    const std::uint32_t id = net.value();
    if (id >= slots_.size() || (slots_[id] >> 1) != epoch_)
      return std::nullopt;
    return (slots_[id] & 1u) != 0;
  }

  bool contains(netlist::NetId net) const { return value(net).has_value(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Drops the entries past the first `size` and forgets their values (their
  // slots go back to 0), so the map is as it was when it held `size`
  // entries.  Costs O(entries dropped).
  void truncate(std::size_t size) {
    for (std::size_t i = size; i < entries_.size(); ++i)
      slots_[entries_[i].first.value()] = 0;
    if (size < entries_.size()) entries_.resize(size);
  }

  // Every assigned (net, value), in assignment order.
  std::span<const Entry> entries() const { return entries_; }

 private:
  // The epoch lives in the slot's upper 31 bits; slot 0 is never current.
  static constexpr std::uint32_t kMaxEpoch = (1u << 31) - 1;

  std::vector<std::uint32_t> slots_;
  std::vector<Entry> entries_;
  std::uint32_t epoch_ = 1;
};

struct PropagationResult {
  AssignmentMap map;
  // False when the seeds are contradictory (an infeasible assignment, which
  // §2.5 rules out: only "suitable and feasible" values are kept).
  bool feasible = true;
};

// The CSR engine: computes the propagation closure of `seeds` over `view`
// into `out` (reset first; its entries double as the FIFO worklist).
// Returns false when the seeds are contradictory; `out` then holds the
// values assigned before the conflict, exactly as the reference leaves them.
bool propagate(const netlist::CompactView& view,
               std::span<const std::pair<netlist::NetId, bool>> seeds,
               AssignmentMap& out);

// Extends `map`, a feasible closure over `view` (or an empty map), to the
// closure of its values plus `seeds`: the seeds are assigned on top and the
// same FIFO loop runs from the map's old size.  Every rule is
// monotone, so the result holds the same values as propagating the union
// from scratch, and a conflict is found either way.  Returns false on a
// conflict, with `map` holding the values assigned before it;
// AssignmentMap::truncate with the old size undoes the extension in both
// cases.
bool propagate_more(const netlist::CompactView& view,
                    std::span<const std::pair<netlist::NetId, bool>> seeds,
                    AssignmentMap& map);

// The literals `literal` forces through one gate on its own: the output of
// a BUF or NOT it feeds, or of a gate it feeds with the controlling value;
// the input of the BUF or NOT driving it; every input of the AND-family
// gate driving it when it holds that gate's non-controlled output value.
// Flip-flops force nothing.  Appends to `out` in fanout order, then the
// driver's inputs in fanin order.  For each such `m`, the closure of
// `literal` contains the closure of `m`, and `literal` is infeasible when
// `m` is.
void one_step_implications(const netlist::CompactView& view,
                           std::pair<netlist::NetId, bool> literal,
                           std::vector<std::pair<netlist::NetId, bool>>& out);

// The reference engine over the pointer netlist: same rules, same FIFO
// order, same closure.
PropagationResult propagate(
    const netlist::Netlist& nl,
    std::span<const std::pair<netlist::NetId, bool>> seeds);

}  // namespace netrev::wordrec
