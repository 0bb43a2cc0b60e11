#include "spans.h"

#include <time.h>

#include <fstream>
#include <stdexcept>

#include "jsonout/jsonout.h"

namespace perfbench {
namespace {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name,
                           std::string entry)
    : recorder_(recorder), index_(recorder.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.entry = std::move(entry);
  span.parent = recorder.open_.empty()
                    ? -1
                    : static_cast<int>(recorder.open_.back());
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(index_);
  cpu_start_ = thread_cpu_ns();
  recorder.spans_[index_].start_ns = recorder.now_ns();
}

SpanRecorder::Scope::~Scope() {
  Span& span = recorder_.spans_[index_];
  span.end_ns = recorder_.now_ns();
  span.cpu_ns = thread_cpu_ns() - cpu_start_;
  recorder_.open_.pop_back();
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& span : spans_) {
    out << "{\"name\":" << netrev::jsonout::quote(span.name)
        << ",\"entry\":" << netrev::jsonout::quote(span.entry)
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"cpu_ns\":" << span.cpu_ns << ",\"parent\":" << span.parent
        << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
