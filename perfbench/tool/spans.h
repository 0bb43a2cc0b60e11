// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed around calls into one netrev layer from the
// benchmark's own code (never inside the program).  Each span records its
// name, wall interval (steady_clock, relative to the recorder's creation),
// the thread CPU time it consumed (CLOCK_THREAD_CPUTIME_ID), the span that
// was open when it started, and the entry or request it belongs to.  Nothing
// is written until write_jsonl(), so recording costs two reads of each clock
// and a vector append.  The traced run is single-threaded: one
// recorder is used from one thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string entry;        // design or request id the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  // thread CPU time between start and end
  int parent = -1;          // index of the enclosing span, -1 at top level
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Closes its span when destroyed.  Scopes must nest (LIFO).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, std::string entry);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
    std::int64_t cpu_start_;
  };

  // One JSON object per line: name, entry, start_ns, end_ns, cpu_ns, parent.
  void write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

}  // namespace perfbench
