// Control-domain inference for flip-flops.
//
// The paper's premise is that control signals (clock/enable/set/reset)
// betray word structure: every bit of a word is wired to the *same* control
// roots.  The netlist model keeps the clock implicit (every kDff shares it),
// so a flop's observable control domain is carried entirely by the structure
// of its D-input logic:
//
//   * enable — D is a 2-way mux (sum-of-products or NAND-NAND form, found
//     through DeMorgan normalization) where one branch recirculates the
//     flop's own Q: the mux select is the load-enable.
//   * sync set — D is an OR-form whose term list contains a direct wire
//     (buffer/inverter chain) to a control root: asserting that root forces
//     D to 1.
//   * sync reset — D is an AND-form with a direct-wire term: deasserting
//     the wired level forces D to 0.
//
// Every wire is traced back through buffer/inverter chains with polarity to
// its *root driver net* (a primary input, flop output, or undriven net), so
// per-bit buffering differences collapse onto the same ControlRoot.  A root
// only counts as control when its fanout reaches kMinControlFanout —
// genuine enables/resets fan out across the word, per-bit data wires do not.
//
// Flops are grouped by their full DomainSignature; the groups (and the
// mixed-domain-word lint rule built on them) are deterministic: inference is
// per-flop and side-effect free, so it fans out on the ThreadPool into
// index-addressed slots, and groups are ordered by first member in netlist
// file order.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "exec/cancel.h"
#include "netlist/netlist.h"

namespace netrev::analysis {

// A control pin's root: the net reached by walking driver chains back
// through BUF/NOT, plus the root level that *asserts* the control.
struct ControlRoot {
  netlist::NetId net = netlist::NetId::invalid();
  bool active_high = true;

  bool valid() const { return net.is_valid(); }

  friend bool operator==(const ControlRoot&, const ControlRoot&) = default;
  friend auto operator<=>(const ControlRoot&, const ControlRoot&) = default;
};

struct DomainSignature {
  ControlRoot enable;               // invalid => no enable mux detected
  std::vector<ControlRoot> sets;    // sorted, deduplicated
  std::vector<ControlRoot> resets;  // sorted, deduplicated

  bool trivial() const {
    return !enable.valid() && sets.empty() && resets.empty();
  }

  friend bool operator==(const DomainSignature&,
                         const DomainSignature&) = default;
  friend auto operator<=>(const DomainSignature&,
                          const DomainSignature&) = default;

  // "enable=load_en set=!s reset=r1,r2" / "none"; net names resolved
  // against `nl`, '!' marks active-low roots.
  std::string describe(const netlist::Netlist& nl) const;
};

struct FlopDomain {
  netlist::GateId flop;
  DomainSignature signature;
};

struct DomainGroup {
  DomainSignature signature;
  std::vector<netlist::GateId> flops;  // netlist file order
};

struct DomainAnalysis {
  std::vector<FlopDomain> flops;    // one per kDff, netlist file order
  std::vector<DomainGroup> groups;  // ordered by first member flop
};

// A traced root only counts as a control root when its net feeds at least
// this many gates; genuine control fans out, per-bit data does not.
inline constexpr std::size_t kMinControlFanout = 3;

// Traces `net` back through BUF/NOT chains to its root driver net.
// `active_high` is the polarity at `net` being traced (true: asserting the
// root's returned level makes `net` 1).  Cycle-guarded; accumulates CPU
// time on "stage.domains_ns" only via analyze_domains.
ControlRoot trace_control_root(const netlist::Netlist& nl, netlist::NetId net,
                               bool active_high = true);

DomainAnalysis analyze_domains(const netlist::Netlist& nl,
                               const exec::Checkpoint& checkpoint = {});

// Structural 2-way mux detection on one gate, viewed output-positive: an
// OR-form (plain OR, or NAND-of-products — found through the same DeMorgan
// normalization the enable detector uses) of exactly two AND-form products
// sharing one opposite-polarity literal.  Returns that select net.  Used by
// the redundant-mux lint rule; no recirculation requirement.
std::optional<netlist::NetId> detect_mux_select(const netlist::Netlist& nl,
                                                netlist::GateId gate);

// A fully resolved 2-way mux: out = select ? when_true : when_false, with
// `select` always viewed active-high.  Both data branches are the roots of
// plain (non-inverted) wire chains.
struct MuxBranches {
  netlist::NetId select = netlist::NetId::invalid();
  netlist::NetId when_true = netlist::NetId::invalid();
  netlist::NetId when_false = netlist::NetId::invalid();
};

// Like detect_mux_select but demands the branch structure the word-level
// lifter can express: each product is exactly (select literal, data wire)
// with the data wire non-negated after DeMorgan normalization.  Used by the
// lift subsystem to recover mux-word and load-enable-register operators.
std::optional<MuxBranches> decompose_mux2(const netlist::Netlist& nl,
                                          netlist::GateId gate);

}  // namespace netrev::analysis
