// The graceful degradation ladder.
//
// When a stage's deadline or work budget trips, identification does not have
// to fail: the paper's own design already orders its machinery by cost, and
// prior art (WordRev, HOST'13) falls back to pure shape-hash grouping when
// deeper matching is unaffordable.  The ladder makes that fallback explicit
// and deterministic — each rung is a strictly cheaper identification
// configuration, tried in order until one completes:
//
//   kFull          the configured technique (depth-4 partial matching with
//                  control-signal reduction — §2 of the paper)
//   kReducedDepth  cone depth capped at 2, single-signal assignments only
//   kBaseline      shape-hash grouping only (the paper's "Base" column)
//   kGroupsOnly    potential-bit groups from the §2.2 line scan — no cone
//                  walks at all, so this rung never trips and always answers
//
// Only resource trips degrade (DeadlineExceededError, ResourceLimitError);
// cancellation and real errors (structural defects, bad input) propagate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace netrev::exec {

enum class DegradeLevel : std::uint8_t {
  kFull = 0,
  kReducedDepth = 1,
  kBaseline = 2,
  kGroupsOnly = 3,
};

// Stable names used in CLI flags, JSON output, and diagnostics:
// "full", "depth", "baseline", "groups".
const char* degrade_level_name(DegradeLevel level);

// Parses a --degrade value ("off" | "full" | "depth" | "baseline" |
// "groups"); nullopt when the name is unknown.  "off" parses to a disabled
// policy, every other name to an enabled policy with that floor.
struct DegradePolicy;
std::optional<DegradePolicy> parse_degrade_policy(const std::string& name);

// How far identification may fall.  The floor is the lowest rung allowed;
// a disabled policy (or floor == kFull) means trips propagate as errors —
// the pre-ladder behavior.
struct DegradePolicy {
  bool enabled = true;
  DegradeLevel floor = DegradeLevel::kGroupsOnly;
};

}  // namespace netrev::exec
