// Cross-module property tests on generated benchmarks:
//   1. every assignment the identifier commits to is simulation-sound
//      (its propagation closure holds on every consistent random vector);
//   2. materialized reduced netlists are behaviourally equivalent to the
//      original under the assumption, and validate structurally;
//   3. virtual-reduction hash keys equal keys computed on the materialized
//      reduction (the two views cannot drift);
//   4. identification output is a true partition of the gate outputs.
#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "itc/family.h"
#include "netlist/validate.h"
#include "support/equivalence.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/reduce.h"

namespace netrev {
namespace {

struct Produced {
  itc::GeneratedBenchmark bench;
  wordrec::IdentifyResult result;
};

const Produced& produced(const std::string& name) {
  static std::map<std::string, Produced> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    Produced p;
    p.bench = itc::build_benchmark(name);
    p.result = wordrec::identify_words(p.bench.netlist);
    it = cache.emplace(name, std::move(p)).first;
  }
  return it->second;
}

class PropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PropertyTest, CommittedAssignmentsAreSimulationSound) {
  const auto& p = produced(GetParam());
  ASSERT_FALSE(p.result.unified.empty());
  for (const auto& unified : p.result.unified) {
    const auto prop = wordrec::propagate(p.bench.netlist, unified.assignment);
    ASSERT_TRUE(prop.feasible);
    std::unordered_map<netlist::NetId, bool> implied(
        prop.map.entries().begin(), prop.map.entries().end());
    const auto check = testing::check_implications(
        p.bench.netlist, unified.assignment, implied, 60, 0xC0FFEE);
    EXPECT_EQ(check.violations, 0u);
  }
}

TEST_P(PropertyTest, MaterializedReductionsValidateAndAgreeBehaviourally) {
  const auto& p = produced(GetParam());
  std::size_t checked = 0;
  for (const auto& unified : p.result.unified) {
    if (checked >= 2) break;  // equivalence sims are the expensive part
    ++checked;
    const auto prop = wordrec::propagate(p.bench.netlist, unified.assignment);
    const auto reduced =
        wordrec::materialize_reduction(p.bench.netlist, prop.map);
    const auto report = netlist::validate(reduced);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_LT(reduced.gate_count(), p.bench.netlist.gate_count());
    const auto equivalence = testing::check_reduction_equivalence(
        p.bench.netlist, reduced, unified.assignment, 60, 0xFEED);
    EXPECT_EQ(equivalence.mismatches, 0u);
  }
}

TEST_P(PropertyTest, VirtualAndMaterializedKeysAgreeOnWordBits) {
  const auto& p = produced(GetParam());
  const wordrec::Options options;
  const wordrec::ConeHasher virtual_hasher(p.bench.netlist, options);
  for (const auto& unified : p.result.unified) {
    const auto prop = wordrec::propagate(p.bench.netlist, unified.assignment);
    const auto reduced =
        wordrec::materialize_reduction(p.bench.netlist, prop.map);
    const wordrec::ConeHasher reduced_hasher(reduced, options);
    for (netlist::NetId bit : unified.bits) {
      const auto red_bit = reduced.find_net(p.bench.netlist.net(bit).name);
      ASSERT_TRUE(red_bit.has_value());
      const auto virtual_sig = virtual_hasher.signature(bit, &prop.map);
      const auto reduced_sig = reduced_hasher.signature(*red_bit);
      EXPECT_TRUE(virtual_sig.structurally_equal(reduced_sig))
          << p.bench.netlist.net(bit).name;
    }
  }
}

TEST_P(PropertyTest, WordSetIsAPartitionOfGateOutputs) {
  const auto& p = produced(GetParam());
  std::unordered_set<netlist::NetId> seen;
  std::size_t total = 0;
  for (const auto& word : p.result.words.words) {
    for (netlist::NetId bit : word.bits) {
      EXPECT_TRUE(seen.insert(bit).second) << "net in two words";
      ++total;
    }
  }
  EXPECT_EQ(total, p.bench.netlist.gate_count());
}

TEST_P(PropertyTest, UnifiedWordsAppearInTheWordSet) {
  const auto& p = produced(GetParam());
  const auto index = p.result.words.index_of_net();
  for (const auto& unified : p.result.unified) {
    ASSERT_FALSE(unified.bits.empty());
    const auto word = index.at(unified.bits[0]);
    for (netlist::NetId bit : unified.bits) EXPECT_EQ(index.at(bit), word);
  }
}

INSTANTIATE_TEST_SUITE_P(Family, PropertyTest,
                         ::testing::Values("b03s", "b08s", "b12s", "b15s"));

}  // namespace
}  // namespace netrev
