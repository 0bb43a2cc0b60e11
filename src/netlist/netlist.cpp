#include "netlist/netlist.h"

#include <functional>
#include <stdexcept>

#include "common/contracts.h"

namespace netrev::netlist {

std::uint32_t Netlist::hash_name(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

std::size_t Netlist::find_slot(std::string_view name,
                               std::uint32_t hash) const {
  if (name_index_.empty()) return kNoSlot;
  // Linear probing; the index is never more than 3/4 full, so an empty slot
  // ends every search.
  const std::size_t mask = name_index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const NameSlot& slot = name_index_[i];
    if (slot.net == kEmptySlot ||
        (slot.hash == hash && nets_[slot.net].name == name))
      return i;
  }
}

void Netlist::resize_index(std::size_t nets) {
  std::size_t slots = 16;
  while (slots * 3 < nets * 4) slots *= 2;
  std::vector<NameSlot> index(slots);
  const std::size_t mask = slots - 1;
  for (const NameSlot& slot : name_index_) {
    if (slot.net == kEmptySlot) continue;
    std::size_t i = slot.hash & mask;
    while (index[i].net != kEmptySlot) i = (i + 1) & mask;
    index[i] = slot;
  }
  name_index_ = std::move(index);
}

NetId Netlist::append_net(std::string_view name, std::uint32_t hash,
                          std::size_t slot) {
  if ((nets_.size() + 1) * 4 > name_index_.size() * 3) {
    resize_index(nets_.size() + 1);
    slot = find_slot(name, hash);
  }
  const NetId id(static_cast<std::uint32_t>(nets_.size()));
  nets_.emplace_back().name = name;
  name_index_[slot] = NameSlot{hash, id.value()};
  return id;
}

void Netlist::reserve(std::size_t nets, std::size_t gates) {
  nets_.reserve(nets);
  gates_.reserve(gates);
  if (nets * 4 > name_index_.size() * 3) resize_index(nets);
}

NetId Netlist::add_net(std::string_view name) {
  if (name.empty()) throw std::invalid_argument("net name must not be empty");
  const std::uint32_t hash = hash_name(name);
  const std::size_t slot = find_slot(name, hash);
  if (slot != kNoSlot && name_index_[slot].net != kEmptySlot)
    throw std::invalid_argument("duplicate net name: " + std::string(name));
  return append_net(name, hash, slot);
}

NetId Netlist::find_or_add_net(std::string_view name) {
  const std::uint32_t hash = hash_name(name);
  const std::size_t slot = find_slot(name, hash);
  if (slot != kNoSlot && name_index_[slot].net != kEmptySlot)
    return NetId(name_index_[slot].net);
  if (name.empty()) throw std::invalid_argument("net name must not be empty");
  return append_net(name, hash, slot);
}

GateId Netlist::add_gate(GateType type, NetId output,
                         std::span<const NetId> inputs) {
  NETREV_REQUIRE(output.value() < nets_.size());
  const int arity = static_cast<int>(inputs.size());
  if (arity < min_arity(type) || arity > max_arity(type))
    throw std::invalid_argument(
        std::string("bad arity for gate ") + std::string(gate_type_name(type)) +
        ": " + std::to_string(arity));
  if (nets_[output.value()].driver.is_valid())
    throw std::invalid_argument("net already driven: " +
                                nets_[output.value()].name);
  if (nets_[output.value()].is_primary_input)
    throw std::invalid_argument("primary input cannot be driven: " +
                                nets_[output.value()].name);
  for (NetId in : inputs) NETREV_REQUIRE(in.value() < nets_.size());

  const GateId id(static_cast<std::uint32_t>(gates_.size()));
  Gate gate;
  gate.type = type;
  gate.output = output;
  gate.inputs.assign(inputs.begin(), inputs.end());
  gates_.push_back(std::move(gate));

  nets_[output.value()].driver = id;
  for (NetId in : inputs) nets_[in.value()].fanouts.push_back(id);
  return id;
}

GateId Netlist::add_gate(GateType type, NetId output,
                         std::initializer_list<NetId> inputs) {
  return add_gate(type, output, std::span<const NetId>(inputs.begin(),
                                                       inputs.size()));
}

void Netlist::mark_primary_input(NetId net) {
  NETREV_REQUIRE(net.value() < nets_.size());
  if (nets_[net.value()].driver.is_valid())
    throw std::invalid_argument("driven net cannot be a primary input: " +
                                nets_[net.value()].name);
  nets_[net.value()].is_primary_input = true;
}

void Netlist::mark_primary_output(NetId net) {
  NETREV_REQUIRE(net.value() < nets_.size());
  nets_[net.value()].is_primary_output = true;
}

const Net& Netlist::net(NetId id) const {
  NETREV_REQUIRE(id.value() < nets_.size());
  return nets_[id.value()];
}

const Gate& Netlist::gate(GateId id) const {
  NETREV_REQUIRE(id.value() < gates_.size());
  return gates_[id.value()];
}

std::vector<GateId> Netlist::gates_in_file_order() const {
  std::vector<GateId> order;
  order.reserve(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i)
    order.push_back(GateId(static_cast<std::uint32_t>(i)));
  return order;
}

std::optional<NetId> Netlist::find_net(std::string_view name) const {
  const std::size_t slot = find_slot(name, hash_name(name));
  if (slot == kNoSlot || name_index_[slot].net == kEmptySlot)
    return std::nullopt;
  return NetId(name_index_[slot].net);
}

std::optional<GateId> Netlist::driver_of(NetId id) const {
  const Net& n = net(id);
  if (!n.driver.is_valid()) return std::nullopt;
  return n.driver;
}

bool Netlist::is_flop_output(NetId id) const {
  const auto drv = driver_of(id);
  return drv.has_value() && gate(*drv).type == GateType::kDff;
}

bool Netlist::feeds_flop(NetId id) const {
  for (GateId g : net(id).fanouts)
    if (gate(g).type == GateType::kDff) return true;
  return false;
}

std::vector<NetId> Netlist::primary_inputs() const {
  std::vector<NetId> result;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].is_primary_input) result.push_back(NetId(static_cast<std::uint32_t>(i)));
  return result;
}

std::vector<NetId> Netlist::primary_outputs() const {
  std::vector<NetId> result;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].is_primary_output) result.push_back(NetId(static_cast<std::uint32_t>(i)));
  return result;
}

std::size_t Netlist::flop_count() const {
  std::size_t count = 0;
  for (const Gate& g : gates_)
    if (g.type == GateType::kDff) ++count;
  return count;
}

std::size_t Netlist::combinational_gate_count() const {
  return gates_.size() - flop_count();
}

}  // namespace netrev::netlist
