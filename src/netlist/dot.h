// GraphViz (DOT) export for netlists and word overlays — the visualization
// used in docs and by `netrev` for inspecting recovered structure (the
// paper's Figure 1 is exactly such a cone drawing).
#pragma once

#include <string>
#include <vector>

#include "netlist/compact.h"
#include "netlist/netlist.h"

namespace netrev::netlist {

struct DotOptions {
  // Cluster and color these net groups (e.g. recovered word bits).
  struct Highlight {
    std::string label;
    std::vector<NetId> nets;
  };
  std::vector<Highlight> highlights;
  bool show_net_names = true;
  // Limit output to the bounded fanin cones of the highlighted nets
  // (0 = whole design).
  std::size_t cone_depth = 0;
};

// Renders nets as nodes (labelled by driver type and name, in ascending net
// id) and gate connections as edges, walking the bounded cones on `view`,
// the view of `nl`, which names the nets.
std::string to_dot(const Netlist& nl, const CompactView& view,
                   const DotOptions& options = {});

}  // namespace netrev::netlist
