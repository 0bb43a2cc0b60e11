// Small text-formatting helpers shared by the table writers and reports.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netrev {

// Fixed-point formatting with the given number of decimals ("3.14", "0.67").
std::string format_fixed(double value, int decimals);

// Percentage with one decimal, no trailing '%' ("71.4").
std::string format_pct(double fraction_0_to_1);

// Left/right padding to a column width.
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

// Render a simple aligned ASCII table.  Each row must have the same number of
// columns as `header`.
std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows);

// A bus-bit style name split into its base and index.  Recognised shapes
// (all produced by common netlist writers; see docs/ANALYSIS.md):
//   COUNT_REG_5_   (Synopsys flattened bus bit)
//   COUNT_REG[5]   (bracketed bus bit)
//   COUNT_REG_5    (plain trailing index)
struct IndexedName {
  std::string base;
  std::size_t index = 0;
};

// Parses one indexed name; nullopt when no index pattern matches (e.g. a
// scalar name like "stato_reg").
std::optional<IndexedName> parse_indexed_name(std::string_view name);

}  // namespace netrev
