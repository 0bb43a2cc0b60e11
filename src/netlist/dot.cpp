#include "netlist/dot.h"

#include <cstdint>
#include <iterator>
#include <string_view>

namespace netrev::netlist {

namespace {

// DOT identifiers for nets; names may contain arbitrary characters, so use
// stable ids and put names in labels.
std::string node_id(std::uint32_t net) { return "n" + std::to_string(net); }

std::string escape_label(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

constexpr std::size_t kNoHighlight = static_cast<std::size_t>(-1);

}  // namespace

std::string to_dot(const Netlist& nl, const CompactView& view,
                   const DotOptions& options) {
  // Which nets to draw.
  const bool whole_design =
      options.cone_depth == 0 || options.highlights.empty();
  std::vector<std::uint8_t> visible(view.net_count(), whole_design ? 1 : 0);
  if (!whole_design) {
    for (const auto& highlight : options.highlights)
      for (NetId root : highlight.nets)
        for (std::uint32_t net : view.fanin_cone_nets(
                 root.value(), options.cone_depth, local_scratch()))
          visible[net] = 1;
  }

  // The first highlight naming a net colors it.
  std::vector<std::size_t> highlight_of(view.net_count(), kNoHighlight);
  for (std::size_t h = 0; h < options.highlights.size(); ++h)
    for (NetId net : options.highlights[h].nets)
      if (highlight_of[net.value()] == kNoHighlight)
        highlight_of[net.value()] = h;

  static constexpr const char* kPalette[] = {
      "lightblue", "lightsalmon", "palegreen", "plum", "khaki", "lightcyan"};

  std::string out = "digraph netlist {\n  rankdir=LR;\n  node [shape=box];\n";
  // Nodes: one per visible net in ascending id, labelled "TYPE\nname"
  // (driver type).
  for (std::uint32_t net = 0; net < view.net_count(); ++net) {
    if (!visible[net]) continue;
    const std::uint32_t driver = view.driver(net);
    const bool driven = driver != CompactView::kNoGate;
    std::string label = driven
                            ? std::string(gate_type_name(view.gate_type(driver)))
                            : std::string("INPUT");
    if (options.show_net_names)
      label += "\\n" + escape_label(nl.net(NetId(net)).name);

    std::string attrs = "label=\"" + label + "\"";
    if (highlight_of[net] != kNoHighlight) {
      attrs += ", style=filled, fillcolor=";
      attrs += kPalette[highlight_of[net] % std::size(kPalette)];
    } else if (!driven) {
      attrs += ", shape=ellipse";
    }
    out += "  " + node_id(net) + " [" + attrs + "];\n";
  }
  // Edges: gate input -> gate output, where both ends are visible.
  for (std::uint32_t g = 0; g < view.gate_count(); ++g) {
    const std::uint32_t output = view.gate_output(g);
    if (!visible[output]) continue;
    for (std::uint32_t in : view.fanin(g)) {
      if (!visible[in]) continue;
      out += "  " + node_id(in) + " -> " + node_id(output);
      if (view.gate_type(g) == GateType::kDff) out += " [style=dashed]";
      out += ";\n";
    }
  }
  // Legend for highlights.
  for (std::size_t h = 0; h < options.highlights.size(); ++h) {
    out += "  legend" + std::to_string(h) + " [label=\"" +
           escape_label(options.highlights[h].label) +
           "\", style=filled, fillcolor=" +
           kPalette[h % std::size(kPalette)] + "];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace netrev::netlist
