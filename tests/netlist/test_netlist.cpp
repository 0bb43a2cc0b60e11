#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

namespace netrev::netlist {
namespace {

TEST(Netlist, AddNetAssignsSequentialIds) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(nl.net_count(), 2u);
  EXPECT_EQ(nl.net(a).name, "a");
}

TEST(Netlist, RejectsEmptyAndDuplicateNames) {
  Netlist nl;
  nl.add_net("a");
  EXPECT_THROW(nl.add_net("a"), std::invalid_argument);
  EXPECT_THROW(nl.add_net(""), std::invalid_argument);
}

TEST(Netlist, FindOrAddReusesExisting) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  EXPECT_EQ(nl.find_or_add_net("a"), a);
  EXPECT_EQ(nl.net_count(), 1u);
  const NetId b = nl.find_or_add_net("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(nl.net_count(), 2u);
}

TEST(Netlist, FindNetReturnsNulloptForUnknown) {
  Netlist nl;
  EXPECT_EQ(nl.find_net("nope"), std::nullopt);
}

TEST(Netlist, NameErrorsKeepTheirMessages) {
  Netlist nl;
  nl.add_net("a");
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const std::invalid_argument& err) {
      return std::string(err.what());
    }
    return std::string("no exception");
  };
  EXPECT_EQ(message([&] { nl.add_net("a"); }), "duplicate net name: a");
  EXPECT_EQ(message([&] { nl.add_net(""); }), "net name must not be empty");
  EXPECT_EQ(message([&] { nl.find_or_add_net(""); }),
            "net name must not be empty");
  EXPECT_EQ(nl.net_count(), 1u);
}

TEST(Netlist, FindNetMissesAbsentNamesAndPrefixes) {
  Netlist nl;
  const NetId abc = nl.add_net("abc");
  const NetId long_name = nl.add_net("a_name_longer_than_any_short_string");
  EXPECT_EQ(nl.find_net("abc"), abc);
  EXPECT_EQ(nl.find_net("a_name_longer_than_any_short_string"), long_name);
  for (const char* absent : {"", "a", "ab", "abcd", "ABC", "bc",
                             "a_name_longer_than_any_short_strin"})
    EXPECT_EQ(nl.find_net(absent), std::nullopt) << absent;
  // A view that is a prefix of a stored name's buffer must not match it.
  const std::string_view stored = nl.net(abc).name;
  EXPECT_EQ(nl.find_net(stored.substr(0, 2)), std::nullopt);
  EXPECT_EQ(nl.find_net(std::string_view{}), std::nullopt);
  EXPECT_EQ(Netlist().find_net("abc"), std::nullopt);
}

TEST(Netlist, NameIndexSurvivesManyResizes) {
  // 150K names grow the index from its first 16 slots through more than a
  // dozen doublings; every name must still resolve to its own id.
  constexpr std::size_t kNames = 150'000;
  Netlist nl;
  for (std::size_t i = 0; i < kNames; ++i)
    ASSERT_EQ(nl.add_net("net_" + std::to_string(i)).value(), i);
  EXPECT_EQ(nl.net_count(), kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    const std::string name = "net_" + std::to_string(i);
    const auto found = nl.find_net(name);
    ASSERT_TRUE(found.has_value()) << name;
    ASSERT_EQ(found->value(), i);
    ASSERT_EQ(nl.find_or_add_net(name).value(), i);
  }
  EXPECT_EQ(nl.net_count(), kNames);
  EXPECT_EQ(nl.find_net("net_" + std::to_string(kNames)), std::nullopt);
  EXPECT_THROW(nl.add_net("net_0"), std::invalid_argument);
}

TEST(Netlist, ReserveKeepsIdsAndLookups) {
  Netlist reserved;
  reserved.reserve(1000, 1000);
  Netlist plain;
  for (int i = 0; i < 2000; ++i) {
    const std::string name = "n" + std::to_string(i);
    EXPECT_EQ(reserved.find_or_add_net(name), plain.find_or_add_net(name));
  }
  reserved.reserve(10, 10);  // shrinking hints are ignored
  for (int i = 0; i < 2000; ++i)
    EXPECT_EQ(reserved.find_net("n" + std::to_string(i))->value(),
              static_cast<std::uint32_t>(i));
}

TEST(Netlist, LookupsSurviveCopyAndMove) {
  Netlist original;
  for (int i = 0; i < 100; ++i) original.add_net("w" + std::to_string(i));

  Netlist copy = original;
  const NetId extra = copy.add_net("only_in_copy");
  EXPECT_EQ(copy.find_net("only_in_copy"), extra);
  EXPECT_EQ(original.find_net("only_in_copy"), std::nullopt);
  for (int i = 0; i < 100; ++i) {
    const std::string name = "w" + std::to_string(i);
    EXPECT_EQ(copy.find_net(name), original.find_net(name));
  }

  Netlist moved = std::move(copy);
  EXPECT_EQ(moved.find_net("only_in_copy"), extra);
  EXPECT_EQ(moved.find_net("w42")->value(), 42u);
  EXPECT_EQ(moved.find_or_add_net("w7").value(), 7u);
  EXPECT_EQ(moved.net_count(), 101u);

  Netlist assigned;
  assigned.add_net("replaced");
  assigned = original;
  EXPECT_EQ(assigned.find_net("replaced"), std::nullopt);
  EXPECT_EQ(assigned.find_net("w99")->value(), 99u);
}

TEST(Netlist, AddGateWiresDriverAndFanout) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  const GateId g = nl.add_gate(GateType::kAnd, y, {a, b});

  EXPECT_EQ(nl.driver_of(y), g);
  EXPECT_EQ(nl.driver_of(a), std::nullopt);
  ASSERT_EQ(nl.net(a).fanouts.size(), 1u);
  EXPECT_EQ(nl.net(a).fanouts[0], g);
  EXPECT_EQ(nl.gate(g).type, GateType::kAnd);
  ASSERT_EQ(nl.gate(g).inputs.size(), 2u);
}

TEST(Netlist, RejectsDoubleDriver) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kBuf, y, {a});
  EXPECT_THROW(nl.add_gate(GateType::kNot, y, {a}), std::invalid_argument);
}

TEST(Netlist, RejectsDrivingPrimaryInput) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  EXPECT_THROW(nl.add_gate(GateType::kBuf, a, {b}), std::invalid_argument);
}

TEST(Netlist, RejectsMarkingDrivenNetAsInput) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.add_gate(GateType::kBuf, y, {a});
  EXPECT_THROW(nl.mark_primary_input(y), std::invalid_argument);
}

TEST(Netlist, RejectsArityViolations) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  EXPECT_THROW(nl.add_gate(GateType::kAnd, y, {a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kNot, y, {a, a}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::kConst0, y, {a}), std::invalid_argument);
}

TEST(Netlist, GatesInFileOrderFollowsCreation) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  const NetId y1 = nl.add_net("y1");
  const NetId y2 = nl.add_net("y2");
  const GateId g1 = nl.add_gate(GateType::kBuf, y1, {a});
  const GateId g2 = nl.add_gate(GateType::kNot, y2, {y1});
  const auto order = nl.gates_in_file_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], g1);
  EXPECT_EQ(order[1], g2);
}

TEST(Netlist, FlopQueries) {
  Netlist nl;
  const NetId d = nl.add_net("d");
  const NetId q = nl.add_net("q");
  nl.mark_primary_input(d);
  nl.add_gate(GateType::kDff, q, {d});
  EXPECT_TRUE(nl.is_flop_output(q));
  EXPECT_FALSE(nl.is_flop_output(d));
  EXPECT_TRUE(nl.feeds_flop(d));
  EXPECT_FALSE(nl.feeds_flop(q));
  EXPECT_EQ(nl.flop_count(), 1u);
  EXPECT_EQ(nl.combinational_gate_count(), 0u);
}

TEST(Netlist, PrimaryPortLists) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.add_gate(GateType::kOr, y, {a, b});
  nl.mark_primary_output(y);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  ASSERT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.primary_outputs()[0], y);
}

TEST(Netlist, CopyIsIndependent) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  Netlist copy = nl;
  copy.add_net("b");
  EXPECT_EQ(nl.net_count(), 1u);
  EXPECT_EQ(copy.net_count(), 2u);
}

TEST(Netlist, NameRoundTrip) {
  Netlist nl("design");
  EXPECT_EQ(nl.name(), "design");
  nl.set_name("other");
  EXPECT_EQ(nl.name(), "other");
}

}  // namespace
}  // namespace netrev::netlist
