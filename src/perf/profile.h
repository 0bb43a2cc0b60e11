// Stage profiling for the identification pipeline.
//
// Two complementary instruments (docs/PERFORMANCE.md describes when to use
// which):
//   * perf::Stage — a nestable RAII wall-clock timer.  Stages opened on the
//     same thread nest into a tree ("evaluate" > "identify" > "grouping"),
//     which `netrev ... --profile` renders as text or JSON.  Stages are for
//     the *sequential* phase structure on the orchestrating thread; their
//     child times sum to (almost) the parent's wall time.
//   * counters — named atomic counters for work done inside parallel
//     regions: cones hashed, pairs compared, subtrees diffed, sim vectors
//     run, plus per-stage CPU-nanosecond accumulators (counter names ending
//     in "_ns" render as durations).  Counter totals are exact at any job
//     count; CPU-time counters sum across workers, so they can legitimately
//     exceed the enclosing stage's wall time — the ratio is the parallel
//     speedup actually achieved.
//
// Everything is a no-op (one relaxed atomic load) while the profiler is
// disabled, so instrumentation stays compiled into release builds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace netrev::perf {

class Profiler {
 public:
  using Counter = std::atomic<std::uint64_t>;

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // The process-wide profiler the pipeline instruments against.
  static Profiler& global();

  // enable() also resets all stages and counters, and starts the total-time
  // clock that render_*() reports against.
  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void reset();

  // Named atomic counter; created on first use, address stable for the
  // profiler's lifetime.  The lookup locks; instrumented code counts through
  // perf::counter<"name">(), which looks each name up once.
  Counter& counter(std::string_view name);

  // Adds `delta` to `counter` iff enabled.
  void count(Counter& counter, std::uint64_t delta) const {
    if (enabled()) counter.fetch_add(delta, std::memory_order_relaxed);
  }

  // Snapshot of one counter (0 if it does not exist).
  std::uint64_t counter_value(std::string_view name) const;

  // Rendering.  Text: an indented stage tree with percentages plus the
  // counter table.  JSON: {"total_ns":..,"stages":[...],"counters":{...}}.
  std::string render_text() const;
  std::string render_json() const;

  // Sum of wall nanoseconds of top-level stages / total elapsed since
  // enable().  Tests assert coverage (the stage tree accounts for the run).
  std::uint64_t top_level_stage_nanos() const;
  std::uint64_t total_nanos() const;

 private:
  friend class Stage;
  friend class ScopedWork;

  struct Node {
    std::string name;
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
    std::vector<std::unique_ptr<Node>> children;
  };
  struct NamedCounter {
    std::string name;
    Counter value{0};
  };

  Node* enter(std::string_view name);
  void exit(Node* node, std::uint64_t nanos);

  // Innermost open stage of the current thread, per profiler.  Only enabled
  // profilers touch this, and one thread interleaves stages of at most one
  // enabled profiler at a time (the global one in production; a local one
  // in tests).
  struct TlsStage {
    Profiler* owner = nullptr;
    Node* node = nullptr;
  };
  static thread_local TlsStage tls_stage_;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point enabled_at_{};

  mutable std::mutex mutex_;  // guards the stage tree and counter list
  Node root_{"total", 0, 0, {}};
  std::vector<std::unique_ptr<NamedCounter>> counters_;
};

// RAII stage timer.  Opens a child of the current thread's innermost open
// stage (or of the root).  No-op while the profiler is disabled — a stage
// opened before enable() or after disable() records nothing.
class Stage {
 public:
  explicit Stage(std::string_view name, Profiler& profiler = Profiler::global());
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  Profiler* profiler_ = nullptr;        // null => disabled at entry
  Profiler::Node* node_ = nullptr;
  Profiler::Node* parent_ = nullptr;    // thread-local parent to restore
  std::chrono::steady_clock::time_point start_{};
};

// A counter name fixed at compile time (the template argument of counter()).
template <std::size_t N>
struct CounterName {
  // Implicit, so a string literal names the counter: counter<"x">().
  constexpr CounterName(const char (&name)[N]) {
    for (std::size_t i = 0; i < N; ++i) text[i] = name[i];
  }
  char text[N];
};

// The global profiler's counter `Name`, looked up under the profiler's lock
// on first use only; every later call is a static load.
template <CounterName Name>
Profiler::Counter& counter() {
  static Profiler::Counter& resolved = Profiler::global().counter(Name.text);
  return resolved;
}

// RAII CPU-time accumulator for parallel regions: adds the elapsed
// nanoseconds of its scope to `counter` (e.g. counter<"stage.matching_ns">())
// while `profiler` is enabled.  Safe to use concurrently from worker threads.
class ScopedWork {
 public:
  explicit ScopedWork(Profiler::Counter& counter,
                      const Profiler& profiler = Profiler::global());
  ~ScopedWork();
  ScopedWork(const ScopedWork&) = delete;
  ScopedWork& operator=(const ScopedWork&) = delete;

 private:
  Profiler::Counter* counter_ = nullptr;  // null => disabled at entry
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace netrev::perf
