#include "rtl/netnamer.h"

namespace netrev::rtl {

netlist::NetId NetNamer::fresh() {
  // Skip numbers already taken (e.g. when extending a parsed netlist).
  while (true) {
    const std::string name = "U" + std::to_string(counter_++);
    if (!nl_->find_net(name)) return nl_->add_net(name);
  }
}

netlist::NetId NetNamer::named(const std::string& name) {
  return nl_->add_net(name);
}

std::string flop_output_name(const std::string& register_name,
                             std::size_t index, std::size_t width) {
  if (width == 1) return register_name + "_reg";
  return register_name + "_reg_" + std::to_string(index) + "_";
}

}  // namespace netrev::rtl
