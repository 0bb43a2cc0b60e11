// CompactView <-> Netlist equivalence.
//
// The data-oriented core is only allowed to exist because it is
// indistinguishable from the pointer representation: every array of the view
// must mirror the netlist exactly, the levelized orders must be bit-for-bit
// the reference levelize() order (tests/support/levelize.h) split by gate
// type, and the CSR cone walks must visit, return, and charge a WorkBudget
// in exactly the sequence of the pointer walks in
// tests/support/cone_oracle.h (the "legacy" side below).  These tests pin that
// contract on hand-built designs, the family benchmarks, random netlists,
// and fault-injected (corrupted, then repaired) corpora.
#include "netlist/compact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/scc.h"
#include "common/diagnostics.h"
#include "common/resource_guard.h"
#include "exec/cancel.h"
#include "itc/family.h"
#include "netlist/netlist.h"
#include "netlist/random_netlist.h"
#include "netlist/repair.h"
#include "parser/bench_parser.h"
#include "parser/parse_options.h"
#include "support/cone_oracle.h"
#include "support/corrupt.h"
#include "support/levelize.h"

namespace netrev::netlist {
namespace {

using testing::fanin_cone_nets;
using testing::in_fanin_cone;

// Full structural round-trip: every gate, net, edge, flag, and name of the
// view must match the netlist it was built from.
void expect_mirrors(const CompactView& view, const Netlist& nl) {
  ASSERT_EQ(view.gate_count(), nl.gate_count());
  ASSERT_EQ(view.net_count(), nl.net_count());

  for (std::uint32_t g = 0; g < view.gate_count(); ++g) {
    const Gate& gate = nl.gate(nl.gate_id_at(g));
    EXPECT_EQ(view.gate_type(g), gate.type);
    EXPECT_EQ(view.gate_output(g), gate.output.value());
    const auto fanin = view.fanin(g);
    ASSERT_EQ(fanin.size(), gate.inputs.size());
    for (std::size_t i = 0; i < fanin.size(); ++i)
      EXPECT_EQ(fanin[i], gate.inputs[i].value());
  }

  for (std::uint32_t n = 0; n < view.net_count(); ++n) {
    const NetId id = nl.net_id_at(n);
    const Net& net = nl.net(id);
    const auto driver = nl.driver_of(id);
    if (driver)
      EXPECT_EQ(view.driver(n), driver->value());
    else
      EXPECT_EQ(view.driver(n), CompactView::kNoGate);
    const auto fanout = view.fanout(n);
    ASSERT_EQ(fanout.size(), net.fanouts.size());
    for (std::size_t i = 0; i < fanout.size(); ++i)
      EXPECT_EQ(fanout[i], net.fanouts[i].value());
    EXPECT_EQ(view.is_primary_input(n), net.is_primary_input);
    EXPECT_EQ(view.is_primary_output(n), net.is_primary_output);
    const bool flop_output =
        driver && nl.gate(*driver).type == GateType::kDff;
    EXPECT_EQ(view.is_flop_output(n), flop_output);
  }
}

// The levelization arrays must be bit-for-bit the reference levelize()
// order split by gate type: comb_order = its non-flop gates, flop_gates =
// its flops in the same relative order (the RNG draw order of the sampler's
// state stimulus depends on it).
void expect_levelization_matches(const CompactView& view, const Netlist& nl) {
  ASSERT_TRUE(view.acyclic());
  const std::vector<GateId> order = testing::levelize(nl);
  ASSERT_EQ(view.comb_order().size() + view.flop_gates().size(),
            order.size());

  std::vector<std::uint32_t> expected_comb;
  std::vector<std::uint32_t> expected_flops;
  for (GateId g : order) {
    if (nl.gate(g).type == GateType::kDff)
      expected_flops.push_back(g.value());
    else
      expected_comb.push_back(g.value());
  }
  EXPECT_TRUE(std::ranges::equal(view.comb_order(), expected_comb));
  EXPECT_TRUE(std::ranges::equal(view.flop_gates(), expected_flops));

  std::vector<std::uint32_t> expected_inputs;
  for (NetId in : nl.primary_inputs()) expected_inputs.push_back(in.value());
  EXPECT_TRUE(std::ranges::equal(view.primary_inputs(), expected_inputs));
  std::vector<std::uint32_t> expected_outputs;
  for (NetId out : nl.primary_outputs())
    expected_outputs.push_back(out.value());
  EXPECT_TRUE(std::ranges::equal(view.primary_outputs(), expected_outputs));
}

// Cone walks: identical result sequences AND identical WorkBudget charge
// totals at every net and depth.
void expect_cones_match(const CompactView& view, const Netlist& nl,
                        std::size_t max_depth) {
  ConeScratch scratch;
  for (std::uint32_t n = 0; n < view.net_count(); ++n) {
    const NetId root = nl.net_id_at(n);
    WorkBudget legacy_budget;
    WorkBudget compact_budget;
    const std::vector<NetId> legacy =
        fanin_cone_nets(nl, root, max_depth, &legacy_budget);
    const std::vector<std::uint32_t> compact =
        view.fanin_cone_nets(n, max_depth, scratch, &compact_budget);
    ASSERT_EQ(compact.size(), legacy.size()) << "root " << nl.net(root).name;
    for (std::size_t i = 0; i < legacy.size(); ++i)
      EXPECT_EQ(compact[i], legacy[i].value());
    EXPECT_EQ(compact_budget.spent(), legacy_budget.spent())
        << "root " << nl.net(root).name << " depth " << max_depth;
  }
}

TEST(CompactView, MirrorsHandBuiltNetlist) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId q = nl.add_net("q");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kAnd, x, {a, b});
  nl.add_gate(GateType::kXor, y, {x, q});
  nl.add_gate(GateType::kDff, q, {y});
  nl.mark_primary_output(y);

  const CompactView view = CompactView::build(nl);
  expect_mirrors(view, nl);
  expect_levelization_matches(view, nl);
  EXPECT_TRUE(view.is_flop_output(q.value()));
  EXPECT_TRUE(view.feeds_flop(y.value()));
  EXPECT_FALSE(view.feeds_flop(a.value()));
  EXPECT_GT(view.memory_bytes(), 0u);
}

TEST(CompactView, MirrorsFamilyBenchmarks) {
  for (const char* name : {"b03s", "b08s", "b13s", "b07s", "b12s"}) {
    SCOPED_TRACE(name);
    const Netlist nl = itc::build_benchmark(name).netlist;
    const CompactView view = CompactView::build(nl);
    expect_mirrors(view, nl);
    expect_levelization_matches(view, nl);
  }
}

TEST(CompactView, MirrorsRandomNetlists) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    RandomNetlistSpec spec;
    spec.seed = seed;
    spec.combinational_gates = 120 + seed * 17;
    spec.flops = 4 + seed;
    spec.include_constants = seed % 2 == 0;
    const Netlist nl = random_netlist(spec);
    const CompactView view = CompactView::build(nl);
    expect_mirrors(view, nl);
    expect_levelization_matches(view, nl);
  }
}

TEST(CompactView, ConeWalksMatchLegacyOnFamilyBenchmarks) {
  for (const char* name : {"b03s", "b08s", "b13s"}) {
    SCOPED_TRACE(name);
    const Netlist nl = itc::build_benchmark(name).netlist;
    const CompactView view = CompactView::build(nl);
    for (std::size_t depth : {std::size_t{0}, std::size_t{3}, std::size_t{64}})
      expect_cones_match(view, nl, depth);
  }
}

TEST(CompactView, InFaninConeMatchesLegacy) {
  const Netlist nl = itc::build_benchmark("b08s").netlist;
  const CompactView view = CompactView::build(nl);
  ConeScratch scratch;
  // Dense pair sweep on a small benchmark: identical verdicts everywhere.
  const std::size_t n = nl.net_count();
  for (std::size_t r = 0; r < n; r += 7) {
    for (std::size_t c = 0; c < n; c += 5) {
      const NetId root = nl.net_id_at(r);
      const NetId candidate = nl.net_id_at(c);
      WorkBudget legacy_budget;
      WorkBudget compact_budget;
      EXPECT_EQ(view.in_fanin_cone(static_cast<std::uint32_t>(r),
                                   static_cast<std::uint32_t>(c), scratch,
                                   &compact_budget),
                in_fanin_cone(nl, root, candidate, &legacy_budget));
      EXPECT_EQ(compact_budget.spent(), legacy_budget.spent())
          << "root " << r << " candidate " << c;
    }
  }
}

TEST(CompactView, ConeWalksTripBudgetAtTheSameLimit) {
  // The determinism contract includes *which* walk exhausts a shared budget:
  // with the exact limit the legacy walk needs, both cores succeed; one unit
  // less and both throw.
  const Netlist nl = itc::build_benchmark("b13s").netlist;
  const CompactView view = CompactView::build(nl);
  // Pick the net with the deepest cone so the limit bites mid-walk.
  NetId root = nl.net_id_at(0);
  std::size_t needed = 0;
  for (std::size_t n = 0; n < nl.net_count(); ++n) {
    WorkBudget probe;
    fanin_cone_nets(nl, nl.net_id_at(n), 64, &probe);
    if (probe.spent() > needed) {
      needed = probe.spent();
      root = nl.net_id_at(n);
    }
  }
  ASSERT_GT(needed, 1u);

  ConeScratch scratch;
  WorkBudget exact_legacy(needed), exact_compact(needed);
  EXPECT_NO_THROW(fanin_cone_nets(nl, root, 64, &exact_legacy));
  EXPECT_NO_THROW(
      view.fanin_cone_nets(root.value(), 64, scratch, &exact_compact));

  WorkBudget tight_legacy(needed - 1), tight_compact(needed - 1);
  EXPECT_THROW(fanin_cone_nets(nl, root, 64, &tight_legacy),
               ResourceLimitError);
  EXPECT_THROW(view.fanin_cone_nets(root.value(), 64, scratch, &tight_compact),
               ResourceLimitError);
}

// The cone walks charge a shared budget in strides, so concurrent walks
// must still add up to exactly what the same walks charge one at a time.
TEST(CompactView, ConcurrentWalksChargeTheSerialTotal) {
  const Netlist nl = itc::build_benchmark("b15s").netlist;
  const CompactView view = CompactView::build(nl);
  const auto walk = [&](std::uint32_t root, ConeScratch& scratch,
                        WorkBudget& budget) {
    view.fanin_cone_nets(root, 64, scratch, &budget);
    view.in_fanin_cone(root, root / 2, scratch, &budget);
  };
  constexpr std::uint32_t kThreads = 4;
  std::size_t serial = 0;
  std::size_t longest = 0;
  ConeScratch serial_scratch;
  for (std::uint32_t n = 0; n < view.net_count(); ++n) {
    WorkBudget one;
    walk(n, serial_scratch, one);
    serial += one.spent();
    longest = std::max(longest, one.spent());
  }
  ASSERT_GT(longest, WorkBudget::kPollStride);  // some walks span strides

  WorkBudget shared;
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ConeScratch scratch;
      for (std::uint32_t n = t; n < view.net_count(); n += kThreads)
        walk(n, scratch, shared);
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared.spent(), serial);
}

// A cancelled run stops a long walk at its first stride instead of letting
// it finish.
TEST(CompactView, CancelledTokenStopsALongWalk) {
  const Netlist nl = itc::build_benchmark("b15s").netlist;
  const CompactView view = CompactView::build(nl);
  ConeScratch scratch;
  std::uint32_t root = 0;
  std::size_t needed = 0;
  for (std::uint32_t n = 0; n < view.net_count(); ++n) {
    WorkBudget probe;
    view.fanin_cone_nets(n, 64, scratch, &probe);
    if (probe.spent() > needed) {
      needed = probe.spent();
      root = n;
    }
  }
  ASSERT_GT(needed, WorkBudget::kPollStride);

  exec::CancelToken token;
  const exec::Checkpoint checkpoint(token, exec::Deadline{});
  WorkBudget live;
  live.set_checkpoint(&checkpoint);
  EXPECT_NO_THROW(view.fanin_cone_nets(root, 64, scratch, &live));
  EXPECT_EQ(live.spent(), needed);

  token.request_cancel();
  WorkBudget cancelled;
  cancelled.set_checkpoint(&checkpoint);
  EXPECT_THROW(view.fanin_cone_nets(root, 64, scratch, &cancelled),
               exec::CancelledError);
  EXPECT_EQ(cancelled.spent(), WorkBudget::kPollStride);
}

TEST(CompactView, ScratchReuseAcrossWalksIsClean) {
  // One scratch across many walks (the thread_local usage pattern): results
  // must be independent of what previous walks marked.
  const Netlist nl = itc::build_benchmark("b03s").netlist;
  const CompactView view = CompactView::build(nl);
  ConeScratch reused;
  for (std::uint32_t n = 0; n < view.net_count(); ++n) {
    ConeScratch fresh;
    EXPECT_EQ(view.fanin_cone_nets(n, 4, reused),
              view.fanin_cone_nets(n, 4, fresh));
  }
}

TEST(CompactView, MirrorsFaultInjectedCorpora) {
  // Corrupted sources pushed through the permissive parse + repair pipeline
  // still round-trip: whatever netlist survives, the view mirrors it.  When
  // repair leaves a combinational cycle the view must say so instead of
  // producing a bogus schedule.
  const std::string source =
      parser::write_bench(itc::build_benchmark("b03s").netlist);
  for (const testing::CorruptionKind kind : testing::kAllCorruptionKinds) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      SCOPED_TRACE(std::string(testing::corruption_name(kind)) + "/" +
                   std::to_string(seed));
      const std::string damaged = testing::corrupt(source, kind, seed);
      diag::Diagnostics diags;
      parser::ParseOptions options;
      options.permissive = true;
      Netlist parsed = parser::parse_bench(damaged, options, diags);
      RepairResult repaired = repair(parsed, diags);
      const CompactView view = CompactView::build(repaired.netlist);
      expect_mirrors(view, repaired.netlist);
      // identify_words trusts this flag to skip the SCC pass.
      EXPECT_EQ(view.acyclic(),
                analysis::combinational_sccs(repaired.netlist).empty());
      if (view.acyclic()) {
        expect_levelization_matches(view, repaired.netlist);
        expect_cones_match(view, repaired.netlist, 4);
      } else {
        EXPECT_TRUE(view.comb_order().empty());
        EXPECT_TRUE(view.flop_gates().empty());
      }
    }
  }
}

TEST(CompactView, CyclicDesignReportsNotAcyclic) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kAnd, x, {a, y});
  nl.add_gate(GateType::kOr, y, {x, a});
  nl.mark_primary_output(y);
  const CompactView view = CompactView::build(nl);
  EXPECT_FALSE(view.acyclic());
  EXPECT_EQ(view.acyclic(), analysis::combinational_sccs(nl).empty());
  EXPECT_TRUE(view.comb_order().empty());
  EXPECT_TRUE(view.flop_gates().empty());
  // Adjacency still mirrors the netlist (lint-style consumers need it).
  expect_mirrors(view, nl);
}

TEST(CompactView, MemoryFootprintIsFlat) {
  // The bytes-per-gate story in docs/PERFORMANCE.md: the flat image of a
  // family benchmark stays within a small constant of its edge count.
  const Netlist nl = itc::build_benchmark("b13s").netlist;
  const CompactView view = CompactView::build(nl);
  const std::size_t bytes = view.memory_bytes();
  EXPECT_GT(bytes, 0u);
  // Generous ceiling: ~200 bytes per gate would already be pathological for
  // a SoA/CSR layout of a max-fanin-8 netlist.
  EXPECT_LT(bytes, nl.gate_count() * 200);
}

}  // namespace
}  // namespace netrev::netlist
