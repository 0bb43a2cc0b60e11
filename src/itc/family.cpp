#include "itc/family.h"

#include <stdexcept>

namespace netrev::itc {

namespace {

// Shorthand constructors for word plans.
WordPlan clean(std::string name, std::size_t width) {
  WordPlan plan;
  plan.kind = WordKind::kClean;
  plan.name = std::move(name);
  plan.width = width;
  return plan;
}

WordPlan ctrl_from_partial(std::string name, std::size_t width,
                           std::size_t plain_bits) {
  WordPlan plan;
  plan.kind = WordKind::kControlFromPartial;
  plan.name = std::move(name);
  plan.width = width;
  plan.plain_bits = plain_bits;
  return plan;
}

WordPlan ctrl_from_nf(std::string name, std::size_t width) {
  WordPlan plan;
  plan.kind = WordKind::kControlFromNotFound;
  plan.name = std::move(name);
  plan.width = width;
  return plan;
}

WordPlan ctrl_pair_from_partial(std::string name, std::size_t width,
                                std::size_t plain_bits) {
  WordPlan plan;
  plan.kind = WordKind::kControlPairFromPartial;
  plan.name = std::move(name);
  plan.width = width;
  plan.plain_bits = plain_bits;
  return plan;
}

WordPlan partial_both(std::string name, std::size_t width,
                      std::size_t pieces) {
  WordPlan plan;
  plan.kind = WordKind::kPartialBoth;
  plan.name = std::move(name);
  plan.width = width;
  plan.pieces = pieces;
  return plan;
}

WordPlan partial_improved(std::string name, std::size_t width,
                          std::size_t plain_bits) {
  WordPlan plan;
  plan.kind = WordKind::kPartialImproved;
  plan.name = std::move(name);
  plan.width = width;
  plan.plain_bits = plain_bits;
  return plan;
}

WordPlan rescued(std::string name, std::size_t width,
                 std::size_t ctrl_cluster_bits) {
  WordPlan plan;
  plan.kind = WordKind::kRescuedToPartial;
  plan.name = std::move(name);
  plan.width = width;
  plan.plain_bits = ctrl_cluster_bits;
  return plan;
}

WordPlan hetero(std::string name, std::size_t width) {
  WordPlan plan;
  plan.kind = WordKind::kNotFoundBoth;
  plan.name = std::move(name);
  plan.width = width;
  return plan;
}

// Adds `count` clean words named <stem>0.. with widths cycling over `widths`.
void add_clean_batch(BenchmarkProfile& profile, const std::string& stem,
                     std::size_t count,
                     const std::vector<std::size_t>& widths) {
  for (std::size_t i = 0; i < count; ++i)
    profile.words.push_back(
        clean(stem + std::to_string(i), widths[i % widths.size()]));
}

BenchmarkProfile b03s() {
  BenchmarkProfile p;
  p.name = "b03s";
  p.seed = 0xB03;
  p.target_gates = 122;
  p.target_flops = 30;
  p.scalar_registers = 8;
  p.words = {clean("CODA0", 3), clean("CODA1", 3), clean("RU2", 3),
             clean("RU3", 3),   clean("GRANT", 3),
             ctrl_from_partial("CODA_OUT", 3, 2), hetero("STATO", 4)};
  return p;
}

BenchmarkProfile b04s() {
  BenchmarkProfile p;
  p.name = "b04s";
  p.seed = 0xB04;
  p.target_gates = 652;
  p.target_flops = 66;
  p.scalar_registers = 0;
  p.words = {clean("RMAX", 8),  clean("RMIN", 8),    clean("RLAST", 8),
             clean("REG1", 7),  clean("REG2", 7),    clean("REG3", 7),
             clean("REG4", 7),  ctrl_from_partial("DATO_OUT", 8, 5),
             hetero("STATO", 6)};
  return p;
}

BenchmarkProfile b05s() {
  BenchmarkProfile p;
  p.name = "b05s";
  p.seed = 0xB05;
  p.target_gates = 927;
  p.target_flops = 34;
  p.scalar_registers = 3;
  p.words = {clean("RES", 7), clean("CONT1", 6), clean("CONT2", 6),
             clean("TEMP", 6), hetero("STATO", 6)};
  return p;
}

BenchmarkProfile b07s() {
  BenchmarkProfile p;
  p.name = "b07s";
  p.seed = 0xB07;
  p.target_gates = 383;
  p.target_flops = 49;
  p.scalar_registers = 0;
  p.decoy_control_words = 1;
  p.words = {clean("PUNTI", 8),  clean("CAR", 8),  clean("LOSS", 7),
             clean("TEMP", 7),   partial_both("X1", 6, 2),
             partial_both("X2", 6, 2), hetero("STATO", 7)};
  return p;
}

BenchmarkProfile b08s() {
  BenchmarkProfile p;
  p.name = "b08s";
  p.seed = 0xB08;
  p.target_gates = 149;
  p.target_flops = 21;
  p.scalar_registers = 0;
  p.decoy_control_words = 1;
  p.words = {clean("IN_R", 4), clean("OUT_R", 4),
             ctrl_from_partial("MAR", 4, 2), ctrl_from_partial("MBR", 5, 3),
             hetero("STATO", 4)};
  return p;
}

BenchmarkProfile b11s() {
  BenchmarkProfile p;
  p.name = "b11s";
  p.seed = 0xB11;
  p.target_gates = 726;
  p.target_flops = 31;
  p.scalar_registers = 0;
  p.words = {clean("R1", 6), clean("R2", 6), clean("CONT", 6),
             partial_both("X_REGI", 6, 3), partial_both("STATO_D", 7, 4)};
  return p;
}

BenchmarkProfile b12s() {
  BenchmarkProfile p;
  p.name = "b12s";
  p.seed = 0xB12;
  p.target_gates = 944;
  p.target_flops = 121;
  p.scalar_registers = 5;
  p.decoy_control_words = 2;
  // 38 clean words: 9 of width 3, 29 of width 2 (85 bits).
  for (std::size_t i = 0; i < 9; ++i)
    p.words.push_back(clean("GAMMA" + std::to_string(i), 3));
  for (std::size_t i = 0; i < 29; ++i)
    p.words.push_back(clean("WL" + std::to_string(i), 2));
  p.words.push_back(ctrl_from_partial("SOUND", 4, 3));
  p.words.push_back(ctrl_from_partial("PLAY", 4, 3));
  p.words.push_back(ctrl_from_partial("COUNT", 4, 3));
  p.words.push_back(ctrl_from_nf("ADDR", 3));
  p.words.push_back(partial_both("SCAN", 4, 2));
  p.words.push_back(rescued("MEMDATA", 6, 5));
  p.words.push_back(hetero("STATE1", 3));
  p.words.push_back(hetero("STATE2", 3));
  return p;
}

BenchmarkProfile b13s() {
  BenchmarkProfile p;
  p.name = "b13s";
  p.seed = 0xB13;
  p.target_gates = 289;
  p.target_flops = 53;
  p.scalar_registers = 16;
  p.words = {clean("DOUT", 5),
             clean("SHIFTREG", 5),
             ctrl_from_nf("CANALE", 4),
             partial_both("CONTA_TMP", 4, 3),
             partial_both("ITFC_STATE", 4, 3),
             partial_improved("LOAD_R", 5, 2),
             hetero("STATO", 10)};
  return p;
}

BenchmarkProfile b14s() {
  BenchmarkProfile p;
  p.name = "b14s";
  p.seed = 0xB14;
  p.target_gates = 9767;
  p.target_flops = 245;
  p.scalar_registers = 4;
  p.decoy_control_words = 3;
  p.words = {clean("REG0", 30),  clean("REG1", 30), clean("REG2", 30),
             clean("REG3", 30),  ctrl_from_partial("DATAOUT", 32, 28),
             partial_both("ADDR_R", 30, 3), partial_both("B", 30, 3),
             partial_both("DMEM", 29, 3)};
  return p;
}

BenchmarkProfile b15s() {
  BenchmarkProfile p;
  p.name = "b15s";
  p.seed = 0xB15;
  p.target_gates = 8367;
  p.target_flops = 449;
  p.scalar_registers = 11;
  add_clean_batch(p, "EREG", 22, {14});
  p.words.push_back(ctrl_from_partial("DATAOUT0", 14, 13));
  p.words.push_back(ctrl_from_partial("DATAOUT1", 14, 13));
  p.words.push_back(ctrl_from_nf("PRELD0", 13));
  p.words.push_back(ctrl_from_nf("PRELD1", 13));
  p.words.push_back(partial_both("QREG0", 13, 3));
  p.words.push_back(partial_both("QREG1", 13, 3));
  p.words.push_back(partial_both("QREG2", 13, 3));
  p.words.push_back(partial_both("QREG3", 13, 3));
  p.words.push_back(partial_both("QREG4", 12, 3));
  p.words.push_back(partial_both("QREG5", 12, 3));
  return p;
}

BenchmarkProfile b17s() {
  BenchmarkProfile p;
  p.name = "b17s";
  p.seed = 0xB17;
  p.target_gates = 30777;
  p.target_flops = 1415;
  p.scalar_registers = 37;
  p.decoy_control_words = 12;
  add_clean_batch(p, "CREG", 36, {15});
  add_clean_batch(p, "DREG", 32, {14});
  p.words.push_back(ctrl_from_partial("DATAOUT", 14, 12));
  for (std::size_t i = 0; i < 4; ++i)
    p.words.push_back(ctrl_from_nf("PRELD" + std::to_string(i), 13));
  p.words.push_back(rescued("MARADDR", 12, 3));
  for (std::size_t i = 0; i < 23; ++i)
    p.words.push_back(partial_both("QREG" + std::to_string(i), 13, 3));
  p.words.push_back(hetero("CSTATE", 13));
  return p;
}

BenchmarkProfile b18s() {
  BenchmarkProfile p;
  p.name = "b18s";
  p.seed = 0xB18;
  p.target_gates = 111241;
  p.target_flops = 3320;
  p.scalar_registers = 172;
  p.decoy_control_words = 21;
  add_clean_batch(p, "CREG", 112, {15});
  for (std::size_t i = 0; i < 7; ++i)
    p.words.push_back(
        ctrl_from_partial("DOUT" + std::to_string(i), 15, 12));
  for (std::size_t i = 0; i < 3; ++i)
    p.words.push_back(
        ctrl_pair_from_partial("GATED" + std::to_string(i), 15, 12));
  p.words.push_back(ctrl_from_nf("PRELD0", 14));
  p.words.push_back(ctrl_from_nf("PRELD1", 14));
  for (std::size_t i = 0; i < 78; ++i)
    p.words.push_back(partial_both("QREG" + std::to_string(i), 15, 3));
  for (std::size_t i = 0; i < 10; ++i)
    p.words.push_back(hetero("FSM" + std::to_string(i), 12));
  return p;
}

// One giant scaling profile.  The word-plan mix mirrors the large Table 1
// rows (mostly clean words, a sprinkle of control-unified and fragmented
// ones) scaled by `word_groups`; everything past the words is size top-up
// filler, so target_gates — not the plan — dictates the netlist size.
BenchmarkProfile giant(std::string name, std::uint64_t seed,
                       std::size_t target_gates, std::size_t word_groups) {
  BenchmarkProfile p;
  p.name = std::move(name);
  p.seed = seed;
  p.target_gates = target_gates;
  p.scalar_registers = 64;
  p.decoy_control_words = 4;
  add_clean_batch(p, "GREG", word_groups, {16, 12, 8});
  for (std::size_t i = 0; i < word_groups / 8; ++i)
    p.words.push_back(
        ctrl_from_partial("GDOUT" + std::to_string(i), 16, 12));
  for (std::size_t i = 0; i < word_groups / 8; ++i)
    p.words.push_back(partial_both("GQREG" + std::to_string(i), 12, 3));
  p.words.push_back(ctrl_from_nf("GPRELD", 14));
  p.words.push_back(hetero("GFSM", 12));
  p.target_flops = p.reference_bit_count() + p.scalar_registers;
  return p;
}

}  // namespace

std::vector<BenchmarkProfile> itc99s_profiles() {
  return {b03s(), b04s(), b05s(), b07s(), b08s(), b11s(),
          b12s(), b13s(), b14s(), b15s(), b17s(), b18s()};
}

std::vector<BenchmarkProfile> giant_profiles() {
  return {giant("b19s", 0xB19, 262144, 96),
          giant("b20s", 0xB20, 1048576, 256),
          giant("b21s", 0xB21, 2097152, 384)};
}

BenchmarkProfile profile_by_name(const std::string& name) {
  for (BenchmarkProfile& profile : itc99s_profiles())
    if (profile.name == name) return profile;
  for (BenchmarkProfile& profile : giant_profiles())
    if (profile.name == name) return profile;
  throw std::invalid_argument("unknown benchmark: " + name);
}

bool is_profile_name(const std::string& name) {
  try {
    profile_by_name(name);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

GeneratedBenchmark build_benchmark(const std::string& name) {
  return generate_benchmark(profile_by_name(name));
}

}  // namespace netrev::itc
