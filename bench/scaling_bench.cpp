// Runtime-scaling microbenchmarks backing the §2.6 complexity discussion:
//   * potential-bit grouping is linear in the netlist (one pass);
//   * signature (hash key) generation is linear with a per-cone constant;
//   * the sorted-merge bit comparison visits each key once, O(k_i + k_j);
//   * full Base and Ours runs on family benchmarks of growing size (the
//     paper's "a few minutes for >100K gates" claim, Table 1 Time column).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/thread_pool.h"
#include "netlist/compact.h"
#include "sim/simulator.h"
#include "support/scalar_sampler.h"
#include "itc/family.h"
#include "wordrec/assignment.h"
#include "wordrec/baseline.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/matching.h"
#include "wordrec/trace.h"

namespace {

using namespace netrev;

// Benchmarks index the family by size: b03s (~150 cells) .. b18s (~115K).
const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {"b03s", "b08s", "b13s",
                                                 "b07s", "b04s", "b11s",
                                                 "b05s", "b12s", "b15s",
                                                 "b14s", "b17s"};
  return names;
}

const itc::GeneratedBenchmark& benchmark_at(std::size_t index) {
  static std::vector<itc::GeneratedBenchmark> cache = [] {
    std::vector<itc::GeneratedBenchmark> all;
    for (const std::string& name : family_names())
      all.push_back(itc::build_benchmark(name));
    return all;
  }();
  return cache[index % cache.size()];
}

// The giant scaling family (b19s ~262K gates .. b21s ~2M), built lazily and
// one at a time — materializing all three up front would hold several
// million pointer-heavy gates in memory for benchmarks that touch one.
const itc::GeneratedBenchmark& giant_at(std::size_t index) {
  static const std::vector<std::string> names = {"b19s", "b20s", "b21s"};
  static std::vector<std::unique_ptr<itc::GeneratedBenchmark>> cache(
      names.size());
  const std::size_t i = index % names.size();
  if (!cache[i])
    cache[i] = std::make_unique<itc::GeneratedBenchmark>(
        itc::build_benchmark(names[i]));
  return *cache[i];
}

// All reference-word bit nets of a benchmark, the probe set funcheck reads.
std::vector<netlist::NetId> all_word_probes(
    const itc::GeneratedBenchmark& bench) {
  std::vector<netlist::NetId> probes;
  for (const auto& [root, bits] : bench.word_bits)
    probes.insert(probes.end(), bits.begin(), bits.end());
  return probes;
}

void BM_Grouping(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto groups = wordrec::potential_bit_groups(bench.netlist);
    benchmark::DoNotOptimize(groups);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_Grouping)->DenseRange(0, 10, 2);

void BM_Signatures(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  const wordrec::Options options;
  const wordrec::ConeHasher hasher(bench.netlist, options);
  for (auto _ : state) {
    std::size_t total_subtrees = 0;
    for (std::size_t i = 0; i < bench.netlist.gate_count(); ++i) {
      const auto sig = hasher.signature(
          bench.netlist.gate(bench.netlist.gate_id_at(i)).output);
      total_subtrees += sig.subtrees.size();
    }
    benchmark::DoNotOptimize(total_subtrees);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_Signatures)->DenseRange(0, 10, 2);

void BM_CompareBits(benchmark::State& state) {
  // The sorted-merge comparison on two wide-signature bits.
  const auto& bench = benchmark_at(9);  // b14s: 30-bit words
  const wordrec::Options options;
  const wordrec::ConeHasher hasher(bench.netlist, options);
  const auto& bits = bench.word_bits.begin()->second;
  const auto sig_a = hasher.signature(bits[0]);
  const auto sig_b = hasher.signature(bits[1]);
  for (auto _ : state) {
    auto match = wordrec::compare_bits(sig_a, sig_b);
    benchmark::DoNotOptimize(match);
  }
}
BENCHMARK(BM_CompareBits);

void BM_Baseline(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto words = wordrec::identify_words_baseline(bench.netlist);
    benchmark::DoNotOptimize(words);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_Baseline)->DenseRange(0, 10, 5)->Unit(benchmark::kMillisecond);

void BM_Ours(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = wordrec::identify_words(bench.netlist);
    benchmark::DoNotOptimize(result);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_Ours)->DenseRange(0, 10, 5)->Unit(benchmark::kMillisecond);

// The --jobs scaling sweep backing BENCH_parallel.json: the full pipeline on
// the largest family benchmark (b17s) at 1/2/4/8 jobs.  Speedup is bounded
// by the host's core count — on a single-core container all rows measure the
// same work plus pool overhead.
void BM_OursJobs(benchmark::State& state) {
  const auto& bench = benchmark_at(10);  // b17s, the largest
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = wordrec::identify_words(bench.netlist);
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::set_global_jobs(restore);
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_OursJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Random-simulation sampling at 1/2/4/8 jobs (the funcheck hot loop): block
// sampling is embarrassingly parallel, so this isolates pool overhead from
// pipeline structure.
void BM_SampleVectorsJobs(benchmark::State& state) {
  const auto& bench = benchmark_at(7);  // b12s: widest funcheck load
  std::vector<netlist::NetId> probes;
  for (const auto& [root, bits] : bench.word_bits)
    probes.insert(probes.end(), bits.begin(), bits.end());
  const auto view = netlist::CompactView::build(bench.netlist);
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto samples = sim::sample_random_vectors(view, probes,
                                              /*vector_count=*/512, 0x5EED);
    benchmark::DoNotOptimize(samples);
  }
  ThreadPool::set_global_jobs(restore);
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SampleVectorsJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- data-oriented core (BENCH_core.json) ---------------------------------
//
// The before/after pair for 64-way bit-parallel random simulation: the
// scalar oracle (tests/support/scalar_sampler.h, compiled into this
// binary) evaluates one vector per pass over the levelized order; the
// packed engine evaluates 64 vectors per pass, one uint64_t lane word per
// net.  Both produce byte-identical samples (tests/sim/test_packed.cpp), so
// the ratio is pure throughput.
void BM_SampleScalar(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  const auto probes = all_word_probes(bench);
  for (auto _ : state) {
    auto samples = netrev::testing::sample_random_vectors_scalar(
        bench.netlist, probes, /*vector_count=*/512, 0x5EED);
    benchmark::DoNotOptimize(samples);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
  state.counters["vectors_per_s"] = benchmark::Counter(
      512, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SampleScalar)->DenseRange(0, 10, 2)->Unit(benchmark::kMillisecond);

void BM_SamplePacked(benchmark::State& state) {
  const auto& bench = benchmark_at(static_cast<std::size_t>(state.range(0)));
  const auto probes = all_word_probes(bench);
  const auto view = netlist::CompactView::build(bench.netlist);
  for (auto _ : state) {
    auto samples = sim::sample_random_vectors(view, probes,
                                              /*vector_count=*/512, 0x5EED);
    benchmark::DoNotOptimize(samples);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
  state.counters["vectors_per_s"] = benchmark::Counter(
      512, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SamplePacked)->DenseRange(0, 10, 2)->Unit(benchmark::kMillisecond);

// CompactView construction cost across the full size sweep, giants included:
// the one-time price of entering the data-oriented core (the Session caches
// it per design identity, so a process pays it once per design).
void BM_CompactBuild(benchmark::State& state) {
  const auto& bench = giant_at(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto view = netlist::CompactView::build(bench.netlist);
    bytes = view.memory_bytes();
    benchmark::DoNotOptimize(view);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
  state.counters["view_bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_gate"] =
      static_cast<double>(bytes) / bench.netlist.gate_count();
}
BENCHMARK(BM_CompactBuild)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// The million-gate identify sweep on the giant family.  Run with
// --benchmark_filter=Giant; b21s holds ~2M gates, so expect minutes per row
// on a laptop-class host.
void BM_GiantIdentify(benchmark::State& state) {
  const auto& bench = giant_at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = wordrec::identify_words(bench.netlist);
    benchmark::DoNotOptimize(result);
  }
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_GiantIdentify)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Reduction-trial propagation on b19s: the pointer reference engine against
// the CSR engine, over a fixed sample of the seeds identify_words really
// propagates (every 16th kTrial record of one traced run, about 600
// trials).  Row 0 is the reference, row 1 the CSR engine; items_per_second
// is trials per second.
struct PropagateFixture {
  netlist::CompactView view;
  std::vector<std::vector<std::pair<netlist::NetId, bool>>> seeds;
};

const PropagateFixture& propagate_fixture() {
  static const PropagateFixture fixture = [] {
    const auto& bench = giant_at(0);
    PropagateFixture built;
    built.view = netlist::CompactView::build(bench.netlist);
    wordrec::IdentifyTrace trace;
    wordrec::Options options;
    options.compact = &built.view;
    options.trace = &trace;
    wordrec::identify_words(bench.netlist, options);
    std::size_t index = 0;
    for (const wordrec::TraceRecord& record : trace.records)
      if (record.kind == wordrec::TraceRecord::Kind::kTrial &&
          index++ % 16 == 0)
        built.seeds.push_back(record.assignment);
    return built;
  }();
  return fixture;
}

void BM_Propagate(benchmark::State& state) {
  const netlist::Netlist& nl = giant_at(0).netlist;
  const PropagateFixture& fixture = propagate_fixture();
  const bool csr = state.range(0) == 1;
  wordrec::AssignmentMap map;
  for (auto _ : state) {
    for (const auto& seeds : fixture.seeds) {
      if (csr) {
        benchmark::DoNotOptimize(wordrec::propagate(fixture.view, seeds, map));
        benchmark::DoNotOptimize(map);
      } else {
        auto result = wordrec::propagate(nl, seeds);
        benchmark::DoNotOptimize(result);
      }
    }
  }
  state.SetLabel(csr ? "csr" : "reference");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fixture.seeds.size()));
  state.counters["trials"] = static_cast<double>(fixture.seeds.size());
}
BENCHMARK(BM_Propagate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Jobs sweep on a giant design: the BENCH_core.json counterpart of
// BM_OursJobs, exercising the compact core's parallel axes (per-group
// processing, packed sampling blocks) at million-gate scale.
void BM_GiantIdentifyJobs(benchmark::State& state) {
  const auto& bench = giant_at(0);  // b19s: the smallest giant
  const std::size_t restore = ThreadPool::global_jobs();
  ThreadPool::set_global_jobs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = wordrec::identify_words(bench.netlist);
    benchmark::DoNotOptimize(result);
  }
  ThreadPool::set_global_jobs(restore);
  state.counters["jobs"] = static_cast<double>(state.range(0));
  state.counters["gates"] =
      static_cast<double>(bench.netlist.gate_count());
}
BENCHMARK(BM_GiantIdentifyJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
