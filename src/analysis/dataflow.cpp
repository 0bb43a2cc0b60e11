#include "analysis/dataflow.h"

#include <cstddef>
#include <deque>
#include <unordered_map>

#include "common/thread_pool.h"
#include "netlist/compact.h"
#include "perf/profile.h"

namespace netrev::analysis {

namespace {

using netlist::CompactView;
using netlist::GateId;
using netlist::GateType;

// Hot loops poll the checkpoint once per stride; an unarmed checkpoint makes
// the poll itself a single branch, so the stride only amortizes the armed
// (clock-reading) case.
constexpr std::size_t kPollStride = 256;

Ternary ternary_not(Ternary v) {
  switch (v) {
    case Ternary::kZero:
      return Ternary::kOne;
    case Ternary::kOne:
      return Ternary::kZero;
    default:
      return Ternary::kX;
  }
}

Ternary norm(Ternary v) {
  return v == Ternary::kBottom ? Ternary::kX : v;
}

// Computes the greatest fixpoint of the combinational transfer functions
// with flop outputs held at `flop_values` (or X when null).  Values start at
// X and only ever refine (X -> 0/1), so the iteration is monotone and
// terminates even on combinational cycles.  `order` is the fixpoint seed:
// on acyclic logic one sweep converges; cycle members just requeue.
//
// The transfer loop iterates the CompactView's CSR arrays — fanin span,
// output id, fanout span — instead of per-gate heap vectors; the queue
// discipline (FIFO seeded by `order`, readers appended in fanout order) is
// unchanged, so the fixpoint values are identical to the pre-CSR engine's.
std::vector<Ternary> propagate(const CompactView& view,
                               const std::vector<std::uint32_t>& order,
                               const std::vector<Ternary>* flop_values,
                               const exec::Checkpoint& checkpoint) {
  std::vector<Ternary> values(view.net_count(), Ternary::kX);

  // An undriven non-input net is never produced: bottom, not unknown.
  for (std::uint32_t n = 0; n < view.net_count(); ++n)
    if (view.driver(n) == CompactView::kNoGate && !view.is_primary_input(n))
      values[n] = Ternary::kBottom;
  for (std::uint32_t g = 0; g < view.gate_count(); ++g) {
    const GateType type = view.gate_type(g);
    if (type == GateType::kConst0)
      values[view.gate_output(g)] = Ternary::kZero;
    else if (type == GateType::kConst1)
      values[view.gate_output(g)] = Ternary::kOne;
    else if (type == GateType::kDff)
      values[view.gate_output(g)] =
          flop_values ? norm((*flop_values)[view.gate_output(g)]) : Ternary::kX;
  }

  std::deque<std::uint32_t> queue(order.begin(), order.end());
  std::vector<std::uint8_t> in_queue(view.gate_count(), 0);
  for (std::uint32_t g : order) in_queue[g] = 1;

  std::vector<Ternary> ins;
  std::size_t steps = 0;
  while (!queue.empty()) {
    if (++steps % kPollStride == 0) checkpoint.poll();
    const std::uint32_t g = queue.front();
    queue.pop_front();
    in_queue[g] = 0;

    ins.clear();
    for (std::uint32_t in : view.fanin(g)) ins.push_back(values[in]);
    const Ternary out = eval_gate_ternary(view.gate_type(g), ins);
    Ternary& cur = values[view.gate_output(g)];
    // Monotone refinement: a driven output starts at X and settles at most
    // once; anything else would mean a non-monotone transfer function.
    if (out == cur || cur != Ternary::kX) continue;
    cur = out;
    for (std::uint32_t reader : view.fanout(view.gate_output(g))) {
      if (!is_combinational(view.gate_type(reader))) continue;
      if (in_queue[reader]) continue;
      in_queue[reader] = 1;
      queue.push_back(reader);
    }
  }
  return values;
}

// Evaluates `target` in the world `base` refined by the single assumption
// `pin = pin_value`.  Only the forward cone of `pin` is recomputed, into a
// sparse overlay; the fixpoint is monotone (the assumption is a refinement
// of `base`), order-independent, and therefore deterministic regardless of
// which worker thread runs it.
Ternary eval_with_pin(const CompactView& view,
                      const std::vector<Ternary>& base, std::uint32_t pin,
                      Ternary pin_value, std::uint32_t target,
                      const exec::Checkpoint& checkpoint) {
  if (pin == target) return pin_value;

  std::unordered_map<std::uint32_t, Ternary> overlay;
  overlay.emplace(pin, pin_value);
  const auto value_of = [&](std::uint32_t n) {
    const auto it = overlay.find(n);
    return it != overlay.end() ? it->second : base[n];
  };

  std::deque<std::uint32_t> queue;
  std::vector<std::uint8_t> in_queue;  // lazily sized: only touched on push
  const auto push_readers = [&](std::uint32_t net) {
    for (std::uint32_t reader : view.fanout(net)) {
      if (!is_combinational(view.gate_type(reader))) continue;
      if (in_queue.empty()) in_queue.assign(view.gate_count(), 0);
      if (in_queue[reader]) continue;
      in_queue[reader] = 1;
      queue.push_back(reader);
    }
  };
  push_readers(pin);

  std::vector<Ternary> ins;
  std::size_t steps = 0;
  while (!queue.empty()) {
    if (++steps % kPollStride == 0) checkpoint.poll();
    const std::uint32_t g = queue.front();
    queue.pop_front();
    in_queue[g] = 0;

    ins.clear();
    for (std::uint32_t in : view.fanin(g)) ins.push_back(value_of(in));
    const Ternary out = eval_gate_ternary(view.gate_type(g), ins);
    const Ternary cur = value_of(view.gate_output(g));
    // The assumption can only refine X values; a net already constant in
    // `base` keeps that constant under any refinement.
    if (out == cur || cur != Ternary::kX) continue;
    overlay[view.gate_output(g)] = out;
    push_readers(view.gate_output(g));
  }
  return norm(value_of(target));
}

}  // namespace

Ternary ternary_join(Ternary a, Ternary b) {
  if (a == b) return a;
  if (a == Ternary::kBottom) return b;
  if (b == Ternary::kBottom) return a;
  return Ternary::kX;  // 0 ⊔ 1, or anything with X
}

char ternary_code(Ternary v) {
  switch (v) {
    case Ternary::kBottom:
      return '_';
    case Ternary::kZero:
      return '0';
    case Ternary::kOne:
      return '1';
    case Ternary::kX:
      return 'X';
  }
  return '?';
}

Ternary eval_gate_ternary(GateType type, std::span<const Ternary> inputs) {
  switch (type) {
    case GateType::kConst0:
      return Ternary::kZero;
    case GateType::kConst1:
      return Ternary::kOne;
    case GateType::kBuf:
    case GateType::kDff:
      return inputs.empty() ? Ternary::kX : norm(inputs[0]);
    case GateType::kNot:
      return inputs.empty() ? Ternary::kX : ternary_not(norm(inputs[0]));
    case GateType::kAnd:
    case GateType::kNand: {
      bool any_zero = false;
      bool any_x = false;
      for (Ternary v : inputs) {
        v = norm(v);
        if (v == Ternary::kZero) any_zero = true;
        else if (v == Ternary::kX) any_x = true;
      }
      const Ternary out = any_zero ? Ternary::kZero
                          : any_x  ? Ternary::kX
                                   : Ternary::kOne;
      return type == GateType::kNand ? ternary_not(out) : out;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool any_one = false;
      bool any_x = false;
      for (Ternary v : inputs) {
        v = norm(v);
        if (v == Ternary::kOne) any_one = true;
        else if (v == Ternary::kX) any_x = true;
      }
      const Ternary out = any_one ? Ternary::kOne
                          : any_x ? Ternary::kX
                                  : Ternary::kZero;
      return type == GateType::kNor ? ternary_not(out) : out;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = false;
      for (Ternary v : inputs) {
        v = norm(v);
        if (v == Ternary::kX) return Ternary::kX;
        parity ^= (v == Ternary::kOne);
      }
      const Ternary out = parity ? Ternary::kOne : Ternary::kZero;
      return type == GateType::kXnor ? ternary_not(out) : out;
    }
  }
  return Ternary::kX;
}

std::vector<GateId> combinational_order(const CompactView& view) {
  // Kahn over combinational gates only; flop outputs, primary inputs,
  // constants and undriven nets are all sources.
  const std::uint32_t gates = view.gate_count();
  std::vector<std::uint32_t> indegree(gates, 0);
  std::vector<std::uint8_t> comb(gates, 0);
  for (std::uint32_t g = 0; g < gates; ++g) {
    if (!is_combinational(view.gate_type(g))) continue;
    comb[g] = 1;
    for (std::uint32_t in : view.fanin(g)) {
      const std::uint32_t driver = view.driver(in);
      if (driver != CompactView::kNoGate &&
          is_combinational(view.gate_type(driver)))
        ++indegree[g];
    }
  }

  std::vector<GateId> order;
  order.reserve(gates);
  std::deque<std::uint32_t> ready;
  for (std::uint32_t g = 0; g < gates; ++g)
    if (comb[g] && indegree[g] == 0) ready.push_back(g);

  std::vector<std::uint8_t> emitted(gates, 0);
  while (!ready.empty()) {
    const std::uint32_t g = ready.front();
    ready.pop_front();
    order.push_back(GateId(g));
    emitted[g] = 1;
    for (std::uint32_t reader : view.fanout(view.gate_output(g))) {
      if (!comb[reader]) continue;
      if (--indegree[reader] == 0) ready.push_back(reader);
    }
  }
  // Gates caught in combinational cycles never reach indegree 0; append them
  // in gate-id (file) order so the fixpoint still visits them.
  for (std::uint32_t g = 0; g < gates; ++g)
    if (comb[g] && !emitted[g]) order.push_back(GateId(g));
  return order;
}

std::vector<std::uint8_t> DataflowFacts::constant_mask() const {
  std::vector<std::uint8_t> mask(always.size(), 0);
  for (std::size_t i = 0; i < always.size(); ++i)
    mask[i] = is_ternary_const(always[i]) ? 1 : 0;
  return mask;
}

DataflowFacts run_dataflow(const CompactView& view,
                           const DataflowOptions& options) {
  perf::ScopedWork work("stage.dataflow_ns");
  const exec::Checkpoint& checkpoint = options.checkpoint;
  checkpoint.poll();

  const std::vector<GateId> order_ids = combinational_order(view);
  std::vector<std::uint32_t> order(order_ids.size());
  for (std::size_t i = 0; i < order_ids.size(); ++i)
    order[i] = order_ids[i].value();

  DataflowFacts facts;
  facts.always = propagate(view, order, nullptr, checkpoint);

  // Flop replace-iteration toward a steady state.  Each round computes every
  // flop's next value synchronously from the previous round, then
  // re-propagates the combinational logic.  A flop whose next value
  // conflicts with an already-refined one oscillates: freeze it at X.
  std::vector<std::uint32_t> flops;
  for (std::uint32_t g = 0; g < view.gate_count(); ++g)
    if (view.gate_type(g) == GateType::kDff) flops.push_back(g);

  facts.steady = facts.always;
  std::vector<std::uint8_t> frozen(flops.size(), 0);
  for (std::size_t round = 0; round < options.max_iterations; ++round) {
    checkpoint.poll();
    std::vector<Ternary> next(flops.size());
    for (std::size_t i = 0; i < flops.size(); ++i)
      next[i] = norm(facts.steady[view.fanin(flops[i])[0]]);

    bool changed = false;
    for (std::size_t i = 0; i < flops.size(); ++i) {
      if (frozen[i]) continue;
      Ternary& cur = facts.steady[view.gate_output(flops[i])];
      if (next[i] == cur) continue;
      if (cur == Ternary::kX) {
        cur = next[i];
      } else {
        cur = Ternary::kX;
        frozen[i] = 1;
      }
      changed = true;
    }
    facts.iterations = round + 1;
    if (!changed) {
      facts.converged = true;
      break;
    }
    facts.steady = propagate(view, order, &facts.steady, checkpoint);
  }
  if (!facts.converged) facts.steady = facts.always;  // stay sound

  // Per-flop stuck detection: independent D-cone evaluations under Q=0 and
  // Q=1, fanned out per flop with index-addressed slots so the result is
  // byte-identical at any job count.
  std::vector<StuckFlop> slots(flops.size());
  ThreadPool::global().parallel_for(
      0, flops.size(),
      [&](std::size_t i) {
        checkpoint.poll();
        const std::uint32_t q = view.gate_output(flops[i]);
        const std::uint32_t d = view.fanin(flops[i])[0];
        StuckFlop stuck;
        stuck.flop = GateId(flops[i]);
        const Ternary steady = facts.steady[q];
        if (facts.converged && is_ternary_const(steady))
          stuck.settles_to = steady;
        const Ternary v0 = eval_with_pin(view, facts.always, q, Ternary::kZero,
                                         d, checkpoint);
        const Ternary v1 = eval_with_pin(view, facts.always, q, Ternary::kOne,
                                         d, checkpoint);
        stuck.holds_state = v0 == Ternary::kZero && v1 == Ternary::kOne;
        slots[i] = stuck;
      },
      /*grain=*/8);

  for (const StuckFlop& stuck : slots)
    if (stuck.holds_state || is_ternary_const(stuck.settles_to))
      facts.stuck_flops.push_back(stuck);
  return facts;
}

}  // namespace netrev::analysis
