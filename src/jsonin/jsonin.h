// The one JSON reader.  Serve request frames, client and worker replies, and
// batch journal lines all parse through jsonin::parse, so hostile or torn
// input meets the same bounds wherever it arrives: nesting depth 256, `\u`
// escapes up to 0xff, integers interpreted up to 2^64-1 (docs/FORMATS.md,
// "Reading JSON").  Callers apply their own shape rules to the Value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace netrev::jsonin {

// One parsed JSON value.  Every value records its source span so callers
// can recover raw bytes (the client re-prints a response's "result" exactly
// as the server rendered it).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  // Only meaningful when integral: netrev interprets nothing but
  // non-negative integers (request options, journal counts).  Floats and
  // negatives still PARSE — response results carry arbitrary JSON
  // (evaluation metrics are fractional) recovered raw via the source span —
  // they are just never interpreted as counts.
  bool integral = false;
  std::uint64_t number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;
  std::size_t begin = 0;  // source span [begin, end) in the parsed text
  std::size_t end = 0;

  // The value of the FIRST member named `key`, or null when absent.
  const Value* find(const std::string& key) const {
    for (const auto& [name, value] : object)
      if (name == key) return &value;
    return nullptr;
  }
};

// Parses all of `text` as one value.  Returns false with a one-line
// `error` ("<what> at offset N") on malformed input or trailing garbage.
bool parse(const std::string& text, Value& value, std::string& error);

}  // namespace netrev::jsonin
