// Internal-net naming in CAD-tool style: fresh nets get sequential "U<n>"
// names (the convention visible in the paper's Figure 1: U201, U215, ...).
#pragma once

#include <string>

#include "netlist/netlist.h"

namespace netrev::rtl {

class NetNamer {
 public:
  explicit NetNamer(netlist::Netlist& nl, std::size_t first_number = 100)
      : nl_(&nl), counter_(first_number) {}

  // A fresh internal net named U<n>.
  netlist::NetId fresh();

  // A net with an exact (register/port) name.
  netlist::NetId named(const std::string& name);

  netlist::Netlist& netlist() { return *nl_; }

 private:
  netlist::Netlist* nl_;
  std::size_t counter_;
};

// Flop output net name for one register bit: "<reg>_reg" or "<reg>_reg_<i>_".
std::string flop_output_name(const std::string& register_name,
                             std::size_t index, std::size_t width);

}  // namespace netrev::rtl
