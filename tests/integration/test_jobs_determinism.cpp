// Acceptance gate for the parallel pipeline: identify_words must produce a
// byte-identical result at any --jobs count on every family benchmark.  The
// parallel stages write into index-addressed slots merged in group order and
// all stochastic sampling uses fixed-size blocks keyed by Rng::stream, so
// nothing downstream may observe the worker count.
//
// The same serializations also pin the analysis core to recorded digests:
// an oracle for any rewrite of cone hashing, control-signal search or the
// reduction trials.  The Session stages that read its cached CompactView —
// lift, lint and the dataflow engine — are pinned the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/dataflow.h"
#include "common/thread_pool.h"
#include "eval/report.h"
#include "itc/family.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/fingerprint.h"
#include "pipeline/session.h"
#include "wordrec/baseline.h"
#include "wordrec/identify.h"
#include "wordrec/trace.h"

namespace netrev {
namespace {

void serialize_words(const wordrec::WordSet& words, std::ostream& out) {
  out << "words:";
  for (const auto& word : words.words) {
    out << " [";
    for (netlist::NetId bit : word.bits) out << ' ' << bit.value();
    out << " ]";
  }
}

// Full serialization of an IdentifyResult — every field that identify_words
// computes, in order, so any divergence (words, assignments, stats) shows up
// as a string mismatch.
std::string fingerprint(const wordrec::IdentifyResult& result) {
  std::ostringstream out;
  serialize_words(result.words, out);
  out << "\nunified:";
  for (const auto& unified : result.unified) {
    out << " {bits:";
    for (netlist::NetId bit : unified.bits) out << ' ' << bit.value();
    out << " assign:";
    for (const auto& [net, value] : unified.assignment)
      out << ' ' << net.value() << '=' << (value ? 1 : 0);
    out << '}';
  }
  out << "\ncontrols:";
  for (netlist::NetId net : result.used_control_signals)
    out << ' ' << net.value();
  const auto& s = result.stats;
  out << "\nstats: g=" << s.groups << " sg=" << s.subgroups
      << " partial=" << s.partial_subgroups
      << " cand=" << s.control_signal_candidates
      << " trials=" << s.reduction_trials << " unified=" << s.unified_subgroups;
  return out.str();
}

class JobsDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(JobsDeterminism, IdentifyIsByteIdenticalAcrossJobCounts) {
  const auto bench = itc::build_benchmark(GetParam());
  const std::size_t restore = ThreadPool::global_jobs();

  ThreadPool::set_global_jobs(1);
  const std::string serial = fingerprint(wordrec::identify_words(bench.netlist));
  for (std::size_t jobs : {2u, 8u}) {
    ThreadPool::set_global_jobs(jobs);
    EXPECT_EQ(fingerprint(wordrec::identify_words(bench.netlist)), serial)
        << GetParam() << " diverged at jobs=" << jobs;
  }

  ThreadPool::set_global_jobs(restore);
}

// fnv1a64 digests of fingerprint(identify_words(...)) and of the serialized
// identify_words_baseline words, default options.  Recorded while the
// retired pointer-netlist core still ran beside the CompactView core and
// both produced these bytes.  `trace` digests render_trace() of a traced
// default-options run; it was recorded while traced runs still took a
// serial group loop and a serial trial loop of their own.  `lift`, `lint`
// and `dataflow` digest Session::lift_json, eval::analysis_to_json of a
// default Session::analyze, and serialize_dataflow of Session::dataflow;
// they were recorded while lift verification, the lint engine and the
// dataflow engine each still flattened the design on their own.
struct RecordedDigests {
  std::string_view name;
  std::uint64_t identify;
  std::uint64_t baseline;
  std::uint64_t trace;
  std::uint64_t lift;
  std::uint64_t lint;
  std::uint64_t dataflow;
};

constexpr RecordedDigests kRecorded[] = {
    {"b03s", 0x8b9545a25cc654feull, 0x80e0a11ddeb92d27ull,
     0xa04bb2c260f945b2ull, 0x7e0b9a5c207ed7f9ull, 0xa7029423de3947e7ull,
     0x55d6df83c2353fb7ull},
    {"b04s", 0xbf8f84a934df034dull, 0xfa310d81bc6b2e43ull,
     0x6b292314952e3b65ull, 0xc5d7609df5f249bdull, 0xbbfee584200ba64bull,
     0x32874ecb73f0a44bull},
    {"b05s", 0x71a649cc4762c180ull, 0x90ad71ba4e398430ull,
     0x473fb51ad3c14246ull, 0x00f95fa5a7de5c79ull, 0x506b087b4adae7beull,
     0x5ff5d3404bd227bbull},
    {"b07s", 0x79460f1ac22db9a7ull, 0xa8b1a1fa59b8cb10ull,
     0xe071eb8e8c92b477ull, 0xb3d73e2d1f156f62ull, 0xd10716c93e2038f7ull,
     0x03cba701f6fddaf7ull},
    {"b08s", 0xf73ececd992e90c3ull, 0x62b9606179ad521dull,
     0x2968767f5bbe2043ull, 0x1b0918f9b29d1d2eull, 0xa7029423de3947e7ull,
     0xe03e1fc87f087dabull},
    {"b11s", 0x98b3d1b00aefc2f4ull, 0x37b38792892e6692ull,
     0xe8a8429d23e78342ull, 0xb09c8e3794e67126ull, 0x04f4d908bcc2325dull,
     0x913ddfd2df27ff47ull},
    {"b12s", 0x2f78a32578eae9ddull, 0xc6fed9288e830adcull,
     0xc65a36a04f5f8f80ull, 0x36e151e439856c61ull, 0xdac435bbda5c39f9ull,
     0x10988f775e7b35cbull},
    {"b13s", 0xd2bd926a31532854ull, 0x83a97aaf46d8cdafull,
     0x64feb7541df77abbull, 0x12dbe0fa75ab750eull, 0xa7029423de3947e7ull,
     0xb308264dd95c01abull},
    {"b14s", 0x8c578282ab26e06cull, 0xd0a2ab6e6fae394eull,
     0x933dc65c8fce1a55ull, 0x26582c5f37ee2aeaull, 0x989fd83815e8c63bull,
     0xceecfb46bd48db17ull},
    {"b15s", 0x4a083dfa178065c7ull, 0x9dcbb7830ddc33ecull,
     0x150eaad2970fcf7full, 0x038a3c184d3518adull, 0x8e63ebbd83887161ull,
     0x7f60e74f819c4437ull},
    {"b17s", 0xdbeb9b98d96b77b2ull, 0x7063dc8abfd91550ull,
     0x10f52091069ecf82ull, 0xf7a4ab92cc948493ull, 0xab62b4f6f1c268a4ull,
     0x09ac0d892ca26d7bull},
    {"b18s", 0x83dd528aca808e04ull, 0xb33d830ebcbb03c3ull,
     0xd268634f25c8560cull, 0x9f050bb819b46448ull, 0x4ab1bf2f2e6bd982ull,
     0x813d3e79011acfcbull},
};

const RecordedDigests* find_recorded(std::string_view name) {
  for (const RecordedDigests& entry : kRecorded)
    if (entry.name == name) return &entry;
  return nullptr;
}

TEST_P(JobsDeterminism, MatchesRecordedDigests) {
  const RecordedDigests* recorded = find_recorded(GetParam());
  ASSERT_NE(recorded, nullptr) << "no recorded digests for " << GetParam();

  const auto bench = itc::build_benchmark(GetParam());
  EXPECT_EQ(pipeline::fnv1a64(
                fingerprint(wordrec::identify_words(bench.netlist))),
            recorded->identify)
      << GetParam() << " identify_words drifted from the recorded result";
  std::ostringstream baseline;
  serialize_words(wordrec::identify_words_baseline(bench.netlist), baseline);
  EXPECT_EQ(pipeline::fnv1a64(baseline.str()), recorded->baseline)
      << GetParam() << " identify_words_baseline drifted from the recorded "
      << "words";
}

// Traced runs take the same parallel group and trial loops as untraced
// ones; each group buffers its records and the merge appends them in group
// order.  The narrative must not depend on the worker count, and tracing
// must not change the result it narrates.
TEST_P(JobsDeterminism, TraceIsByteIdenticalAcrossJobCounts) {
  const RecordedDigests* recorded = find_recorded(GetParam());
  ASSERT_NE(recorded, nullptr) << "no recorded digests for " << GetParam();
  const auto bench = itc::build_benchmark(GetParam());
  const std::size_t restore = ThreadPool::global_jobs();

  const std::string untraced =
      fingerprint(wordrec::identify_words(bench.netlist));
  for (std::size_t jobs : {1u, 8u}) {
    ThreadPool::set_global_jobs(jobs);
    wordrec::IdentifyTrace trace;
    wordrec::Options options;
    options.trace = &trace;
    const wordrec::IdentifyResult traced =
        wordrec::identify_words(bench.netlist, options);
    EXPECT_EQ(pipeline::fnv1a64(wordrec::render_trace(bench.netlist, trace)),
              recorded->trace)
        << GetParam() << " trace drifted from the recorded one at jobs="
        << jobs;
    EXPECT_EQ(fingerprint(traced), untraced)
        << GetParam() << " traced result differs from the untraced one at "
        << "jobs=" << jobs;
  }

  ThreadPool::set_global_jobs(restore);
}

// Every fact run_dataflow computes, in order: both valuations as ternary
// codes, the stuck flops, and the iteration outcome.
std::string serialize_dataflow(const analysis::DataflowFacts& facts) {
  std::string out = "always:";
  for (analysis::Ternary v : facts.always) out += analysis::ternary_code(v);
  out += "\nsteady:";
  for (analysis::Ternary v : facts.steady) out += analysis::ternary_code(v);
  out += "\nstuck:";
  for (const analysis::StuckFlop& stuck : facts.stuck_flops) {
    out += ' ' + std::to_string(stuck.flop.value()) + ':' +
           (stuck.holds_state ? '1' : '0') +
           analysis::ternary_code(stuck.settles_to);
  }
  out += "\niterations=" + std::to_string(facts.iterations) +
         " converged=" + (facts.converged ? "1" : "0");
  return out;
}

// The stages that read the Session's CompactView, each from a cold cache at
// jobs 1 and 8.
TEST_P(JobsDeterminism, StagesMatchRecordedDigests) {
  const RecordedDigests* recorded = find_recorded(GetParam());
  ASSERT_NE(recorded, nullptr) << "no recorded digests for " << GetParam();
  const std::size_t restore = ThreadPool::global_jobs();

  for (std::size_t jobs : {1u, 8u}) {
    ThreadPool::set_global_jobs(jobs);
    pipeline::ArtifactCache cache;
    Session session({}, &cache);
    const LoadedDesign design = session.load_netlist(GetParam());
    EXPECT_EQ(pipeline::fnv1a64(session.lift_json(design)), recorded->lift)
        << GetParam() << " lift drifted at jobs=" << jobs;
    EXPECT_EQ(pipeline::fnv1a64(eval::analysis_to_json(
                  design.nl(), *session.analyze(design))),
              recorded->lint)
        << GetParam() << " lint drifted at jobs=" << jobs;
    EXPECT_EQ(pipeline::fnv1a64(serialize_dataflow(*session.dataflow(design))),
              recorded->dataflow)
        << GetParam() << " dataflow facts drifted at jobs=" << jobs;
  }

  ThreadPool::set_global_jobs(restore);
}

INSTANTIATE_TEST_SUITE_P(FamilyBenchmarks, JobsDeterminism,
                         ::testing::Values("b03s", "b04s", "b05s", "b07s",
                                           "b08s", "b11s", "b12s", "b13s",
                                           "b14s", "b15s", "b17s", "b18s"));

}  // namespace
}  // namespace netrev
