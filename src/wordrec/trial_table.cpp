#include "wordrec/trial_table.h"

#include <algorithm>
#include <numeric>
#include <ranges>

#include "common/contracts.h"
#include "common/thread_pool.h"
#include "perf/profile.h"

namespace netrev::wordrec {

// The trials sorted by seed set, and the sets grouped into units.  Sorting
// puts a set's trials in one run, and the sets that share a first seed in
// one run with the single-seed set first, so every level is a range:
// set s is trials order[set_begin[s], set_begin[s + 1]), unit u is sets
// [unit_begin[u], unit_begin[u + 1]), and units are sorted by literal.
struct TrialTable::Forest {
  static constexpr std::uint32_t kNoUnit = 0xFFFFFFFFu;

  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> set_begin;
  std::vector<std::uint32_t> unit_begin;
  std::vector<std::vector<std::uint32_t>> children;  // per unit
  std::vector<std::uint32_t> roots;

  Forest(const TrialTable& table, const netlist::CompactView& view) {
    group(table);
    link(table, view);
  }

  std::uint32_t unit_count() const {
    return static_cast<std::uint32_t>(unit_begin.size() - 1);
  }
  std::uint32_t first_trial(std::uint32_t set) const {
    return order[set_begin[set]];
  }
  Seed literal(const TrialTable& table, std::uint32_t unit) const {
    return table.seeds(first_trial(unit_begin[unit])).front();
  }

 private:
  void group(const TrialTable& table) {
    const auto less = [&](std::uint32_t a, std::uint32_t b) {
      const auto sa = table.seeds(a), sb = table.seeds(b);
      return std::lexicographical_compare(sa.begin(), sa.end(), sb.begin(),
                                          sb.end());
    };
    order.resize(table.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), less);
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      if (i > 0 && !less(order[i - 1], order[i])) continue;  // same set
      if (i == 0 ||
          table.seeds(order[i - 1]).front() != table.seeds(order[i]).front())
        unit_begin.push_back(static_cast<std::uint32_t>(set_begin.size()));
      set_begin.push_back(i);
    }
    unit_begin.push_back(static_cast<std::uint32_t>(set_begin.size()));
    set_begin.push_back(static_cast<std::uint32_t>(order.size()));
  }

  // Hangs each unit below the first unit its literal implies in one step,
  // unless that would close a cycle; the rest are roots.
  void link(const TrialTable& table, const netlist::CompactView& view) {
    const auto literal_of = [&](std::uint32_t u) { return literal(table, u); };
    const auto units = std::views::iota(0u, unit_count());
    std::vector<std::uint32_t> parent(unit_count(), kNoUnit);
    std::vector<Seed> implied;
    for (std::uint32_t u : units) {
      implied.clear();
      one_step_implications(view, literal(table, u), implied);
      for (const Seed& m : implied) {
        const auto it = std::ranges::lower_bound(units, m, {}, literal_of);
        if (it == units.end() || literal_of(*it) != m) continue;
        std::uint32_t up = *it;
        while (up != kNoUnit && up != u) up = parent[up];
        if (up == u) continue;  // that unit already hangs below this one
        parent[u] = *it;
        break;
      }
    }
    children.resize(unit_count());
    for (std::uint32_t u : units) {
      if (parent[u] == kNoUnit)
        roots.push_back(u);
      else
        children[parent[u]].push_back(u);
    }
  }
};

std::size_t TrialTable::add(std::span<const Seed> seeds) {
  NETREV_REQUIRE(!seeds.empty());
  seeds_.insert(seeds_.end(), seeds.begin(), seeds.end());
  trial_begin_.push_back(static_cast<std::uint32_t>(seeds_.size()));
  return size() - 1;
}

void TrialTable::run(const netlist::CompactView& view,
                     const exec::Checkpoint& checkpoint,
                     const Verdict& verdict) {
  const Forest forest(*this, view);
  feasible_.assign(size(), 0);
  unifies_.assign(size(), 0);
  parallel_for(0, forest.roots.size(), [&](std::size_t r) {
    perf::ScopedWork work(perf::counter<"stage.reduction_ns">());
    walk(forest, forest.roots[r], view, checkpoint, verdict);
  });
}

// Depth-first over one tree: a unit extends its parent's closure with its
// literal, evaluates its sets, hands the closure to its children, then
// truncates back to the parent's.
void TrialTable::walk(const Forest& forest, std::uint32_t root,
                      const netlist::CompactView& view,
                      const exec::Checkpoint& checkpoint,
                      const Verdict& verdict) {
  static thread_local AssignmentMap map;
  map.reset(view.net_count());
  struct Frame {
    std::uint32_t unit;
    std::size_t next_child;
    std::size_t base;  // the map's size before the unit's literal
  };
  std::vector<Frame> stack;
  std::size_t nets = 0;  // assigned by this tree's propagations
  const auto enter = [&](std::uint32_t u) {
    checkpoint.poll();
    const Seed literal = forest.literal(*this, u);
    const std::size_t base = map.size();
    bool closed;
    {
      perf::ScopedWork work(perf::counter<"stage.propagate_ns">());
      closed = propagate_more(view, std::span(&literal, 1), map);
    }
    nets += map.size() - base;
    if (!closed) {
      // Its sets stay infeasible, and so does every unit below it.
      map.truncate(base);
      return;
    }
    for (std::uint32_t s = forest.unit_begin[u]; s < forest.unit_begin[u + 1];
         ++s)
      nets += evaluate(forest, s, map, view, verdict);
    stack.push_back(Frame{u, 0, base});
  };
  enter(root);
  while (!stack.empty()) {
    Frame& top = stack.back();
    const std::vector<std::uint32_t>& children = forest.children[top.unit];
    if (top.next_child < children.size()) {
      enter(children[top.next_child++]);
    } else {
      map.truncate(top.base);
      stack.pop_back();
    }
  }
  perf::Profiler::global().count(perf::counter<"propagated_nets">(), nets);
}

// Extends the unit's closure in `map` with the set's remaining seeds, asks
// for the verdict of every trial of the set, and undoes the extension.
// Returns the number of nets the extension assigned.
std::size_t TrialTable::evaluate(const Forest& forest, std::uint32_t set,
                                 AssignmentMap& map,
                                 const netlist::CompactView& view,
                                 const Verdict& verdict) {
  const std::span<const Seed> rest = seeds(forest.first_trial(set)).subspan(1);
  const std::size_t mark = map.size();
  bool closed = true;
  if (!rest.empty()) {
    perf::ScopedWork work(perf::counter<"stage.propagate_ns">());
    closed = propagate_more(view, rest, map);
  }
  if (closed) {
    perf::ScopedWork work(perf::counter<"stage.rehash_ns">());
    for (std::uint32_t i = forest.set_begin[set]; i < forest.set_begin[set + 1];
         ++i) {
      const std::uint32_t t = forest.order[i];
      feasible_[t] = 1;
      unifies_[t] = verdict(t, map);
    }
  }
  const std::size_t assigned = map.size() - mark;
  map.truncate(mark);
  return assigned;
}

}  // namespace netrev::wordrec
