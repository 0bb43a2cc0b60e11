// The lifting subsystem's contract: typed classification on hand-built
// shapes, self-verification (bit-blast + simulation equivalence) on every
// family benchmark, byte-stable output across worker counts and cache
// temperature, and graceful degradation under seeded input corruption.
#include "lift/lift.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/resource_guard.h"
#include "common/thread_pool.h"
#include "itc/family.h"
#include "lift/json.h"
#include "netlist/compact.h"
#include "netlist/netlist.h"
#include "parser/bench_parser.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/session.h"
#include "rtl/lower_ops.h"
#include "rtl/netnamer.h"
#include "support/corrupt.h"
#include "wordrec/word.h"

namespace netrev::lift {
namespace {

using netlist::CompactView;
using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

const char* const kFamily[] = {"b03s", "b04s", "b08s", "b11s", "b13s"};

wordrec::WordSet one_word(std::vector<NetId> bits) {
  wordrec::WordSet words;
  words.words.push_back(wordrec::Word{std::move(bits)});
  return words;
}

TEST(Classify, ConstWord) {
  Netlist nl;
  const NetId k0 = nl.add_net("k0");
  const NetId k1 = nl.add_net("k1");
  nl.add_gate(GateType::kConst1, k0, {});
  nl.add_gate(GateType::kConst1, k1, {});

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({k0, k1}));
  ASSERT_EQ(model.ops.size(), 1u);
  EXPECT_EQ(model.ops[0].kind, OpKind::kConst);
  EXPECT_EQ(model.ops[0].name, "const");
  EXPECT_TRUE(model.ops[0].const_value);
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, BitwiseWord) {
  Netlist nl;
  const NetId a0 = nl.add_net("a0"), a1 = nl.add_net("a1");
  const NetId b0 = nl.add_net("b0"), b1 = nl.add_net("b1");
  const NetId o0 = nl.add_net("o0"), o1 = nl.add_net("o1");
  for (NetId in : {a0, a1, b0, b1}) nl.mark_primary_input(in);
  nl.add_gate(GateType::kAnd, o0, {a0, b0});
  nl.add_gate(GateType::kAnd, o1, {a1, b1});
  nl.mark_primary_output(o0);
  nl.mark_primary_output(o1);

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({o0, o1}));
  ASSERT_EQ(model.ops.size(), 1u);
  const WordOp& op = model.ops[0];
  EXPECT_EQ(op.kind, OpKind::kBitwise);
  EXPECT_EQ(op.name, "and");
  EXPECT_EQ(op.bitwise_type, GateType::kAnd);
  ASSERT_EQ(op.operands.size(), 2u);
  EXPECT_EQ(model.signals[op.operands[0]].bits, (std::vector<NetId>{a0, a1}));
  EXPECT_EQ(model.signals[op.operands[1]].bits, (std::vector<NetId>{b0, b1}));
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, MuxWord) {
  Netlist nl;
  const NetId sel = nl.add_net("sel");
  const NetId a0 = nl.add_net("a0"), a1 = nl.add_net("a1");
  const NetId b0 = nl.add_net("b0"), b1 = nl.add_net("b1");
  const NetId y0 = nl.add_net("y0"), y1 = nl.add_net("y1");
  for (NetId in : {sel, a0, a1, b0, b1}) nl.mark_primary_input(in);
  rtl::NetNamer namer(nl);
  const NetId not_sel = rtl::make_not(namer, sel);
  // mux2_spec(sel, a, b): sel ? b : a — so the b-column is when_true.
  rtl::emit_onto(namer, y0, rtl::mux2_spec(namer, sel, a0, b0, not_sel));
  rtl::emit_onto(namer, y1, rtl::mux2_spec(namer, sel, a1, b1, not_sel));
  nl.mark_primary_output(y0);
  nl.mark_primary_output(y1);

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({y0, y1}));
  ASSERT_EQ(model.ops.size(), 1u);
  const WordOp& op = model.ops[0];
  EXPECT_EQ(op.kind, OpKind::kMux2);
  EXPECT_EQ(op.control.net, sel);
  EXPECT_TRUE(op.control.active_high);
  ASSERT_EQ(op.operands.size(), 2u);
  EXPECT_EQ(model.signals[op.operands[0]].bits, (std::vector<NetId>{b0, b1}));
  EXPECT_EQ(model.signals[op.operands[1]].bits, (std::vector<NetId>{a0, a1}));
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, PlainRegisterWord) {
  Netlist nl;
  const NetId d0 = nl.add_net("d0"), d1 = nl.add_net("d1");
  const NetId q0 = nl.add_net("q0"), q1 = nl.add_net("q1");
  nl.mark_primary_input(d0);
  nl.mark_primary_input(d1);
  nl.add_gate(GateType::kDff, q0, {d0});
  nl.add_gate(GateType::kDff, q1, {d1});
  nl.mark_primary_output(q0);
  nl.mark_primary_output(q1);

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({q0, q1}));
  ASSERT_EQ(model.ops.size(), 1u);
  const WordOp& op = model.ops[0];
  EXPECT_EQ(op.kind, OpKind::kRegister);
  EXPECT_EQ(op.d_nets, (std::vector<NetId>{d0, d1}));
  ASSERT_EQ(op.operands.size(), 1u);
  EXPECT_EQ(model.signals[op.operands[0]].bits, (std::vector<NetId>{d0, d1}));
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, LoadEnableRegisterWord) {
  Netlist nl;
  const NetId en = nl.add_net("en");
  const NetId d0 = nl.add_net("d0"), d1 = nl.add_net("d1");
  const NetId n0 = nl.add_net("n0"), n1 = nl.add_net("n1");
  const NetId q0 = nl.add_net("q0"), q1 = nl.add_net("q1");
  for (NetId in : {en, d0, d1}) nl.mark_primary_input(in);
  nl.add_gate(GateType::kDff, q0, {n0});
  nl.add_gate(GateType::kDff, q1, {n1});
  rtl::NetNamer namer(nl);
  const NetId not_en = rtl::make_not(namer, en);
  // Next state: en ? d : q — the recirculating shape classify_register hunts.
  rtl::emit_onto(namer, n0, rtl::mux2_spec(namer, en, q0, d0, not_en));
  rtl::emit_onto(namer, n1, rtl::mux2_spec(namer, en, q1, d1, not_en));
  nl.mark_primary_output(q0);
  nl.mark_primary_output(q1);

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({q0, q1}));
  ASSERT_EQ(model.ops.size(), 1u);
  const WordOp& op = model.ops[0];
  EXPECT_EQ(op.kind, OpKind::kLoadRegister);
  EXPECT_EQ(op.control.net, en);
  EXPECT_TRUE(op.control.active_high);
  EXPECT_EQ(op.d_nets, (std::vector<NetId>{n0, n1}));
  ASSERT_EQ(op.operands.size(), 1u);
  EXPECT_EQ(model.signals[op.operands[0]].bits, (std::vector<NetId>{d0, d1}));
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, OpaqueFallbackStillVerifies) {
  Netlist nl;
  const NetId a0 = nl.add_net("a0"), a1 = nl.add_net("a1");
  const NetId b0 = nl.add_net("b0"), b1 = nl.add_net("b1");
  const NetId o0 = nl.add_net("o0"), o1 = nl.add_net("o1");
  for (NetId in : {a0, a1, b0, b1}) nl.mark_primary_input(in);
  // Mixed per-bit gate types defeat every typed pattern.
  nl.add_gate(GateType::kXor, o0, {a0, b0});
  nl.add_gate(GateType::kAnd, o1, {a1, b1});
  nl.mark_primary_output(o0);
  nl.mark_primary_output(o1);

  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({o0, o1}));
  ASSERT_EQ(model.ops.size(), 1u);
  const WordOp& op = model.ops[0];
  EXPECT_EQ(op.kind, OpKind::kOpaque);
  EXPECT_EQ(op.gates.size(), 2u);
  EXPECT_EQ(op.leaves.size(), 4u);
  EXPECT_EQ(model.coverage.opaque_ops, 1u);
  EXPECT_EQ(model.verdict, "equivalent");
}

TEST(Classify, NoVerifyLeavesUnchecked) {
  Netlist nl;
  const NetId k = nl.add_net("k");
  const NetId j = nl.add_net("j");
  nl.add_gate(GateType::kConst0, k, {});
  nl.add_gate(GateType::kConst0, j, {});
  Options options;
  options.verify = false;
  const LiftResult model =
      lift_words(nl, CompactView::build(nl), one_word({k, j}), options);
  EXPECT_EQ(model.verdict, "unchecked");
  EXPECT_EQ(model.ops_checked, 0u);
  ASSERT_EQ(model.ops.size(), 1u);
  EXPECT_FALSE(model.ops[0].checked);
}

// --- family round-trip ------------------------------------------------------
// Every family benchmark must lift to a model whose every operator
// bit-blasts back to something simulation-equivalent to the source cones.

TEST(FamilyRoundTrip, EveryBenchmarkLiftsEquivalent) {
  for (const char* benchmark : kFamily) {
    SCOPED_TRACE(benchmark);
    Session session;
    const LoadedDesign design = session.load_netlist(benchmark);
    const auto model = session.lift(design);
    EXPECT_EQ(model->verdict, "equivalent");
    EXPECT_GT(model->ops.size(), 0u);
    EXPECT_EQ(model->ops_checked, model->ops.size());
    EXPECT_EQ(model->ops_equivalent, model->ops_checked);
    for (const WordOp& op : model->ops) {
      EXPECT_TRUE(op.checked);
      EXPECT_TRUE(op.equivalent) << op.name;
      EXPECT_EQ(op.mismatches, 0u);
    }

    const std::string json = session.lift_json(design);
    EXPECT_EQ(json.rfind("{\"schema_version\":1,", 0), 0u)
        << json.substr(0, 60);
    EXPECT_NE(json.find("\"verdict\":\"equivalent\""), std::string::npos);
    int braces = 0, brackets = 0;
    for (char ch : json) {
      braces += ch == '{';
      braces -= ch == '}';
      brackets += ch == '[';
      brackets -= ch == ']';
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
  }
}

// --- determinism ------------------------------------------------------------

TEST(Determinism, ByteIdenticalAcrossJobs) {
  const auto render = [](std::size_t jobs) {
    ThreadPool::set_global_jobs(jobs);
    Session session;
    const LoadedDesign design = session.load_netlist("b11s");
    return session.lift_json(design);
  };
  const std::string at_one = render(1);
  const std::string at_eight = render(8);
  ThreadPool::set_global_jobs(0);
  EXPECT_EQ(at_one, at_eight);
}

TEST(Determinism, WarmCacheMatchesColdCache) {
  Session session;
  const LoadedDesign design = session.load_netlist("b08s");
  const std::string cold = session.lift_json(design);
  const std::string warm = session.lift_json(design);
  EXPECT_EQ(cold, warm);

  pipeline::ArtifactCache fresh_cache;
  Session fresh({}, &fresh_cache);
  const std::string other = fresh.lift_json(fresh.load_netlist("b08s"));
  EXPECT_EQ(cold, other);
}

// --- fault injection --------------------------------------------------------
// Seeded corruptions of family sources pushed through the permissive load
// and then lift: the contract is survival (diagnostics or a clean
// UnusableInputError / ResourceLimitError), never a crash.

TEST(FaultInjection, LiftSurvivesSeededCorruptions) {
  constexpr std::uint64_t kSeedsPerCase = 3;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  std::size_t survived = 0;
  std::size_t lifted = 0;

  for (const char* benchmark : {"b03s", "b13s"}) {
    const std::string source =
        parser::write_bench(itc::build_benchmark(benchmark).netlist);
    for (const testing::CorruptionKind kind : testing::kAllCorruptionKinds) {
      for (std::uint64_t seed = 0; seed < kSeedsPerCase; ++seed) {
        const std::string label = std::string(benchmark) + ":" +
                                  testing::corruption_name(kind) + ":" +
                                  std::to_string(seed);
        SCOPED_TRACE(label);
        const std::filesystem::path path =
            dir / ("netrev_lift_fi_" + std::to_string(survived) + ".bench");
        {
          std::ofstream out(path);
          out << testing::corrupt(source, kind, seed);
        }

        RunConfig config;
        config.parse.permissive = true;
        config.lift.verify_vectors = 16;  // keep the sweep fast
        Session session(config);
        try {
          const LoadedDesign design = session.load_netlist(path.string());
          const auto model = session.lift(design);
          EXPECT_TRUE(model->verdict == "equivalent" ||
                      model->verdict == "not_equivalent")
              << model->verdict;
          ++lifted;
        } catch (const UnusableInputError&) {
          // Documented rejection of unrecoverable input.
        } catch (const ResourceLimitError&) {
          // Documented runaway-work abort.
        }
        ++survived;
        std::filesystem::remove(path);
      }
    }
  }
  // The sweep only means something if a healthy share of mutants still
  // reach the lifting stage.
  EXPECT_GT(lifted, survived / 2);
}

}  // namespace
}  // namespace netrev::lift
