#include "perf/profile.h"

#include <iomanip>
#include <sstream>

#include "jsonout/jsonout.h"

namespace netrev::perf {

thread_local Profiler::TlsStage Profiler::tls_stage_;

namespace {

std::string format_ms(std::uint64_t nanos) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3)
      << static_cast<double>(nanos) / 1e6 << " ms";
  return out.str();
}

bool is_duration_counter(const std::string& name) {
  return name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler profiler;
  return profiler;
}

void Profiler::enable() {
  reset();
  enabled_at_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Profiler::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  root_.children.clear();
  root_.nanos = 0;
  root_.calls = 0;
  for (auto& counter : counters_) counter->value.store(0);
}

Profiler::Counter& Profiler::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& existing : counters_)
    if (existing->name == name) return existing->value;
  counters_.push_back(std::make_unique<NamedCounter>());
  counters_.back()->name = std::string(name);
  return counters_.back()->value;
}

std::uint64_t Profiler::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& existing : counters_)
    if (existing->name == name) return existing->value.load();
  return 0;
}

Profiler::Node* Profiler::enter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Node* parent =
      tls_stage_.owner == this && tls_stage_.node != nullptr ? tls_stage_.node
                                                           : &root_;
  for (auto& child : parent->children)
    if (child->name == name) return child.get();
  parent->children.push_back(std::make_unique<Node>());
  parent->children.back()->name = std::string(name);
  return parent->children.back().get();
}

void Profiler::exit(Node* node, std::uint64_t nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  node->nanos += nanos;
  node->calls += 1;
}

std::uint64_t Profiler::top_level_stage_nanos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& child : root_.children) sum += child->nanos;
  return sum;
}

std::uint64_t Profiler::total_nanos() const {
  if (enabled_at_ == std::chrono::steady_clock::time_point{}) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - enabled_at_)
          .count());
}

std::string Profiler::render_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t total = total_nanos();
  std::ostringstream out;
  out << "profile (total " << format_ms(total) << "):\n";

  // Recursive stage render; percentage is of the parent's time.
  const auto render = [&](const auto& self, const Node& node,
                          std::uint64_t parent_nanos, int indent) -> void {
    for (const auto& child : node.children) {
      const double pct =
          parent_nanos > 0
              ? 100.0 * static_cast<double>(child->nanos) /
                    static_cast<double>(parent_nanos)
              : 0.0;
      out << std::string(static_cast<std::size_t>(indent) * 2, ' ') << "- "
          << child->name << ": " << format_ms(child->nanos) << " ("
          << std::fixed << std::setprecision(1) << pct << "%, "
          << child->calls << " call" << (child->calls == 1 ? "" : "s")
          << ")\n";
      self(self, *child, child->nanos, indent + 1);
    }
  };
  render(render, root_, total, 1);

  bool header = false;
  for (const auto& counter : counters_) {
    const std::uint64_t value = counter->value.load();
    if (value == 0) continue;
    if (!header) {
      out << "counters:\n";
      header = true;
    }
    out << "  " << counter->name << ": ";
    if (is_duration_counter(counter->name))
      out << format_ms(value) << " (cpu, summed across workers)";
    else
      out << value;
    out << '\n';
  }
  return out.str();
}

std::string Profiler::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  const auto render = [&](const auto& self, const Node& node) -> void {
    out << "{\"name\":" << jsonout::quote(node.name) << ",\"ns\":"
        << node.nanos << ",\"calls\":" << node.calls << ",\"children\":[";
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out << ',';
      self(self, *node.children[i]);
    }
    out << "]}";
  };
  out << "{\"total_ns\":" << total_nanos() << ",\"stages\":[";
  for (std::size_t i = 0; i < root_.children.size(); ++i) {
    if (i > 0) out << ',';
    render(render, *root_.children[i]);
  }
  out << "],\"counters\":{";
  bool first = true;
  for (const auto& counter : counters_) {
    const std::uint64_t value = counter->value.load();
    if (value == 0) continue;
    if (!first) out << ',';
    first = false;
    out << jsonout::quote(counter->name) << ':' << value;
  }
  out << "}}";
  return out.str();
}

Stage::Stage(std::string_view name, Profiler& profiler) {
  if (!profiler.enabled()) return;
  profiler_ = &profiler;
  node_ = profiler.enter(name);
  parent_ = Profiler::tls_stage_.owner == &profiler ? Profiler::tls_stage_.node
                                                    : nullptr;
  Profiler::tls_stage_ = {&profiler, node_};
  start_ = std::chrono::steady_clock::now();
}

Stage::~Stage() {
  if (profiler_ == nullptr) return;
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  profiler_->exit(node_, nanos);
  Profiler::tls_stage_ = {profiler_, parent_};
}

ScopedWork::ScopedWork(Profiler::Counter& counter,
                       const Profiler& profiler) {
  if (!profiler.enabled()) return;
  counter_ = &counter;
  start_ = std::chrono::steady_clock::now();
}

ScopedWork::~ScopedWork() {
  if (counter_ == nullptr) return;
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  counter_->fetch_add(nanos, std::memory_order_relaxed);
}

}  // namespace netrev::perf
