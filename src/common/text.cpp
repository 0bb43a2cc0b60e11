#include "common/text.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/contracts.h"

namespace netrev {

std::string format_fixed(double value, int decimals) {
  NETREV_REQUIRE(decimals >= 0 && decimals <= 9);
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string format_pct(double fraction_0_to_1) {
  return format_fixed(fraction_0_to_1 * 100.0, 1);
}

std::string pad_left(std::string_view text, std::size_t width) {
  std::string out;
  if (text.size() < width) out.assign(width - text.size(), ' ');
  out.append(text);
  return out;
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!text.empty() && is_space(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && is_space(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    NETREV_REQUIRE(row.size() == header.size());
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += (c == 0) ? "| " : " | ";
      out += pad_right(row[c], widths[c]);
    }
    out += " |\n";
  };
  emit_row(header);
  for (std::size_t c = 0; c < header.size(); ++c) {
    out += (c == 0) ? "|-" : "-|-";
    out.append(widths[c], '-');
  }
  out += "-|\n";
  for (const auto& row : rows) emit_row(row);
  return out;
}

namespace {

bool all_digits(std::string_view text) {
  if (text.empty()) return false;
  return std::all_of(text.begin(), text.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

}  // namespace

std::optional<IndexedName> parse_indexed_name(std::string_view name) {
  // COUNT_REG[5]
  if (!name.empty() && name.back() == ']') {
    const std::size_t open = name.rfind('[');
    if (open != std::string_view::npos) {
      const std::string_view digits =
          name.substr(open + 1, name.size() - open - 2);
      if (all_digits(digits) && open > 0)
        return IndexedName{
            std::string(name.substr(0, open)),
            static_cast<std::size_t>(std::stoul(std::string(digits)))};
    }
    return std::nullopt;
  }
  // COUNT_REG_5_
  if (!name.empty() && name.back() == '_') {
    const std::string_view body = name.substr(0, name.size() - 1);
    const std::size_t underscore = body.rfind('_');
    if (underscore != std::string_view::npos) {
      const std::string_view digits = body.substr(underscore + 1);
      if (all_digits(digits) && underscore > 0)
        return IndexedName{
            std::string(body.substr(0, underscore)),
            static_cast<std::size_t>(std::stoul(std::string(digits)))};
    }
    return std::nullopt;
  }
  // COUNT_REG_5
  const std::size_t underscore = name.rfind('_');
  if (underscore != std::string_view::npos && underscore > 0) {
    const std::string_view digits = name.substr(underscore + 1);
    if (all_digits(digits))
      return IndexedName{
          std::string(name.substr(0, underscore)),
          static_cast<std::size_t>(std::stoul(std::string(digits)))};
  }
  return std::nullopt;
}

}  // namespace netrev
