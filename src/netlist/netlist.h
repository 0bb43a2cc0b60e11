// The flattened gate-level netlist model.
//
// A Netlist owns a set of named nets and a sequence of gates.  Gate order is
// significant: it is the order gate lines appear in the netlist file, which
// §2.2 of the paper exploits ("Each net is compared against the next line in
// the netlist file").  Fanout lists are maintained incrementally so fanin /
// fanout traversals are O(degree).
//
// Each net name is stored once, in Net::name.  Name lookup goes through an
// open-addressed index of (name hash, net id) slots that compares candidates
// against nets_[id].name, so add_net, find_or_add_net and find_net hash the
// name once and allocate nothing beyond the stored name itself.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/strong_id.h"
#include "netlist/gate_type.h"

namespace netrev::netlist {

struct NetTag {};
struct GateTag {};
using NetId = StrongId<NetTag>;
using GateId = StrongId<GateTag>;

struct Net {
  std::string name;
  GateId driver = GateId::invalid();  // invalid => primary input or dangling
  std::vector<GateId> fanouts;        // gates reading this net
  bool is_primary_input = false;
  bool is_primary_output = false;
};

struct Gate {
  GateType type = GateType::kBuf;
  NetId output = NetId::invalid();
  std::vector<NetId> inputs;  // DFF: single D input (clock implicit)
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  // Sizes the net and gate storage and the name index for a design of about
  // this many nets and gates, so a reader that knows its counts up front
  // builds without regrowing.  A hint only: more may still be added.
  void reserve(std::size_t nets, std::size_t gates);

  // Creates a net.  Throws std::invalid_argument if the name is empty or
  // already taken.
  NetId add_net(std::string_view name);

  // Returns the existing net with this name or creates it.
  NetId find_or_add_net(std::string_view name);

  // Creates a gate driving `output` from `inputs`, appended at the end of the
  // file order.  Throws std::invalid_argument on arity violations or if
  // `output` already has a driver.
  GateId add_gate(GateType type, NetId output, std::span<const NetId> inputs);
  GateId add_gate(GateType type, NetId output,
                  std::initializer_list<NetId> inputs);

  void mark_primary_input(NetId net);
  void mark_primary_output(NetId net);

  // --- access -------------------------------------------------------------

  std::size_t net_count() const { return nets_.size(); }
  std::size_t gate_count() const { return gates_.size(); }

  const Net& net(NetId id) const;
  const Gate& gate(GateId id) const;

  // All gate ids in file order.
  std::vector<GateId> gates_in_file_order() const;

  std::optional<NetId> find_net(std::string_view name) const;

  // The gate driving `net`, or nullopt for primary inputs / dangling nets.
  std::optional<GateId> driver_of(NetId net) const;

  // True if the net is the output of a flip-flop.
  bool is_flop_output(NetId net) const;
  // True if the net is read by some flip-flop's D pin.
  bool feeds_flop(NetId net) const;

  std::vector<NetId> primary_inputs() const;
  std::vector<NetId> primary_outputs() const;

  // Iteration helpers: valid ids are exactly [0, count).
  NetId net_id_at(std::size_t index) const { return NetId(static_cast<std::uint32_t>(index)); }
  GateId gate_id_at(std::size_t index) const { return GateId(static_cast<std::uint32_t>(index)); }

  // --- counts used in Table 1 ---------------------------------------------

  std::size_t flop_count() const;
  std::size_t combinational_gate_count() const;

 private:
  static constexpr std::uint32_t kEmptySlot = NetId::invalid().value();
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // One slot of the name index: the low 32 bits of the name's hash and the
  // id of the net carrying it.  Slots hold ids, never views of the names:
  // growing nets_ moves short (SSO) strings.
  struct NameSlot {
    std::uint32_t hash = 0;
    std::uint32_t net = kEmptySlot;
  };

  static std::uint32_t hash_name(std::string_view name);
  // The slot holding `name`, or the empty slot where it would go; kNoSlot
  // while the index is unallocated.
  std::size_t find_slot(std::string_view name, std::uint32_t hash) const;
  // Rebuilds the index with room for `nets` names at most 3/4 full.
  void resize_index(std::size_t nets);
  // Appends a net for a name find_slot reported absent at `slot`.
  NetId append_net(std::string_view name, std::uint32_t hash,
                   std::size_t slot);

  std::string name_;
  std::vector<Net> nets_;
  std::vector<Gate> gates_;
  std::vector<NameSlot> name_index_;  // empty or a power-of-two slot count
};

}  // namespace netrev::netlist
