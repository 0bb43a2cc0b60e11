// Resource ceilings for untrusted inputs.
//
// Parsers check file size and net/gate counts against ResourceLimits, and
// graph traversals charge a WorkBudget, so a runaway or adversarial netlist
// produces a clean ResourceLimitError (which the CLI turns into a diagnostic
// and a distinct exit code) instead of an OOM kill or a hang.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "exec/cancel.h"

namespace netrev {

// Thrown when an input exceeds a configured resource ceiling.  Deliberately a
// domain error (not ContractViolation): hitting a limit means bad input, not
// a programming bug.
class ResourceLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Ceilings applied while ingesting a netlist.  The defaults are far above any
// legitimate design this library targets.
struct ResourceLimits {
  std::size_t max_file_bytes = 256ull << 20;  // 256 MiB of netlist text
  std::size_t max_nets = 8'000'000;
  std::size_t max_gates = 8'000'000;
};

// Metered work counter for graph traversals.  Traversals charge one unit per
// visited node; once the limit is exceeded the traversal is aborted via
// ResourceLimitError.  A default-constructed budget is unlimited.  The CSR
// cone walks (netlist/compact.cpp) count visits locally and charge them in
// kPollStride strides, so concurrent walks do not contend on the atomic per
// node.
//
// Thread-safe: one budget is shared by the control-signal search walks of
// an identify_words() run, and those walks execute on pool workers.  The total
// charged is exact at any job count; which traversal observes the overflow
// first may differ between job counts, but every run past the limit aborts
// with the same error either way.
class WorkBudget {
 public:
  // charge() polls the attached checkpoint once per this many units, so a
  // deadline clock read never sits on the per-net hot path.
  static constexpr std::size_t kPollStride = 1024;

  WorkBudget() = default;
  explicit WorkBudget(std::size_t limit) : limit_(limit) {}

  // Attaches a cancellation/deadline poll point (non-owning; must outlive
  // the budget's use).  Cone walks thereby become interruptible without any
  // signature change: everything that charges the budget polls.
  void set_checkpoint(const exec::Checkpoint* checkpoint) {
    checkpoint_ = checkpoint != nullptr && checkpoint->armed() ? checkpoint
                                                               : nullptr;
  }

  void charge(std::size_t units = 1) {
    const std::size_t spent =
        spent_.fetch_add(units, std::memory_order_relaxed) + units;
    if (limit_ != 0 && spent > limit_)
      throw ResourceLimitError("cone traversal work limit exceeded (" +
                               std::to_string(limit_) + " nodes)");
    // Strided poll: checks roughly every kPollStride charged units.  The
    // stride is approximate under concurrency, which is fine — polls decide
    // *whether* to keep going, never *what* is computed.
    if (checkpoint_ != nullptr && (spent & (kPollStride - 1)) < units)
      checkpoint_->poll();
  }

  bool limited() const { return limit_ != 0; }
  std::size_t spent() const {
    return spent_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t limit_ = 0;  // 0 = unlimited
  const exec::Checkpoint* checkpoint_ = nullptr;  // non-owning
  std::atomic<std::size_t> spent_{0};
};

}  // namespace netrev
