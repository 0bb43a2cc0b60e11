#include "pipeline/fingerprint.h"

#include "analysis/dataflow.h"
#include "analysis/domains.h"

namespace netrev::pipeline {

namespace {

std::uint64_t hash_u64(std::uint64_t value, std::uint64_t seed) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  return fnv1a64(std::string_view(bytes, 8), seed);
}

std::uint64_t hash_bool(bool value, std::uint64_t seed) {
  return hash_u64(value ? 1 : 0, seed);
}

std::uint64_t hash_string(std::string_view text, std::uint64_t seed) {
  // Length prefix keeps ("ab","c") distinct from ("a","bc") when chained.
  return fnv1a64(text, hash_u64(text.size(), seed));
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) { return hash_u64(b, a); }

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::uint64_t fingerprint(const parser::ParseOptions& options,
                          std::size_t max_errors) {
  std::uint64_t hash = fnv1a64("parse-options");
  hash = hash_bool(options.permissive, hash);
  hash = hash_string(options.filename, hash);
  hash = hash_u64(options.limits.max_file_bytes, hash);
  hash = hash_u64(options.limits.max_nets, hash);
  hash = hash_u64(options.limits.max_gates, hash);
  // The error budget only matters when recovery is on; strict parses either
  // succeed identically or throw before producing an artifact.
  if (options.permissive) hash = hash_u64(max_errors, hash);
  return hash;
}

std::uint64_t fingerprint(const wordrec::Options& options) {
  std::uint64_t hash = fnv1a64("wordrec-options");
  hash = hash_u64(options.cone_depth, hash);
  hash = hash_u64(options.max_simultaneous_assignments, hash);
  hash = hash_bool(options.distinguish_leaf_kinds, hash);
  // Slot of the retired sweep_dead_logic knob: the reduction always sweeps.
  hash = hash_bool(true, hash);
  // Slot of the retired try_both_values_without_controlling_sink knob.
  // Batch resume journals key entries by these bytes, so a journal written
  // by an earlier build still resumes.
  hash = hash_bool(false, hash);
  hash = hash_bool(options.cross_group_checking, hash);
  // Slots of the retired cross-group gap and search caps, now the constants
  // they always held.
  hash = hash_u64(wordrec::Options::cross_group_max_gap, hash);
  hash = hash_u64(wordrec::kMaxControlSignalsPerSubgroup, hash);
  hash = hash_u64(wordrec::kMaxAssignmentTrialsPerSubgroup, hash);
  hash = hash_u64(options.max_cone_work, hash);
  hash = hash_bool(options.use_dataflow, hash);
  // options.constant_nets is derived purely from the netlist (already part
  // of every artifact key via the design identity), so the mask pointer is
  // excluded; use_dataflow above is what changes the output.
  // options.trace and options.checkpoint are observation-only and excluded
  // (a deadline changes when a run stops, not what a completed run
  // computes).
  return hash;
}

std::uint64_t fingerprint(const lift::Options& options) {
  std::uint64_t hash = fnv1a64("lift-options");
  hash = hash_bool(options.verify, hash);
  hash = hash_u64(options.verify_vectors, hash);
  // Slots of the retired verify_seed and opaque_depth knobs, now the
  // constants they always held.  Batch resume journals key on these bytes.
  hash = hash_u64(lift::kVerifySeed, hash);
  hash = hash_u64(lift::kOpaqueDepth, hash);
  // Slot of the retired include_singletons knob, kept so batch resume
  // journals written by earlier builds still match.
  hash = hash_bool(false, hash);
  return hash;
}

std::uint64_t fingerprint(const analysis::AnalysisOptions& options) {
  std::uint64_t hash = fnv1a64("analysis-options");
  hash = hash_u64(options.enabled_rules.size(), hash);
  for (const std::string& rule : options.enabled_rules)
    hash = hash_string(rule, hash);
  // Slots of the retired rule thresholds and engine bounds, now the
  // constants they always held.  Batch resume journals key on these bytes.
  hash = hash_u64(
      static_cast<std::uint64_t>(analysis::kFanoutPercentile * 1e6), hash);
  hash = hash_u64(analysis::kMinFlaggedFanout, hash);
  hash = hash_u64(analysis::kMaxFindingsPerRule, hash);
  hash = hash_u64(analysis::kDataflowMaxIterations, hash);
  hash = hash_u64(analysis::kMinControlFanout, hash);
  // options.checkpoint is observation-only and excluded.
  return hash;
}

std::uint64_t fingerprint(const exec::DegradePolicy& policy) {
  std::uint64_t hash = fnv1a64("degrade-policy");
  hash = hash_bool(policy.enabled, hash);
  hash = hash_u64(static_cast<std::uint64_t>(policy.floor), hash);
  return hash;
}

std::uint64_t fingerprint(const diag::Diagnostics& diags) {
  std::uint64_t hash = fnv1a64("diagnostics");
  hash = hash_u64(diags.entries().size(), hash);
  for (const diag::Diagnostic& entry : diags.entries()) {
    hash = hash_u64(static_cast<std::uint64_t>(entry.severity), hash);
    hash = hash_string(entry.message, hash);
    hash = hash_string(entry.location.file, hash);
    hash = hash_u64(entry.location.line, hash);
    hash = hash_u64(entry.location.column, hash);
  }
  return hash;
}

std::uint64_t netlist_fingerprint(const netlist::Netlist& nl) {
  std::uint64_t hash = fnv1a64("netlist");
  hash = hash_string(nl.name(), hash);
  hash = hash_u64(nl.net_count(), hash);
  for (std::size_t i = 0; i < nl.net_count(); ++i) {
    const netlist::Net& net = nl.net(nl.net_id_at(i));
    hash = hash_string(net.name, hash);
    hash = hash_bool(net.is_primary_input, hash);
    hash = hash_bool(net.is_primary_output, hash);
  }
  hash = hash_u64(nl.gate_count(), hash);
  for (netlist::GateId id : nl.gates_in_file_order()) {
    const netlist::Gate& gate = nl.gate(id);
    hash = hash_u64(static_cast<std::uint64_t>(gate.type), hash);
    hash = hash_u64(gate.output.value(), hash);
    hash = hash_u64(gate.inputs.size(), hash);
    for (netlist::NetId input : gate.inputs)
      hash = hash_u64(input.value(), hash);
  }
  return hash;
}

}  // namespace netrev::pipeline
