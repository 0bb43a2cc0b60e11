#include "pipeline/manifest.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/text.h"
#include "itc/family.h"

namespace netrev::pipeline {

namespace {

namespace fs = std::filesystem;

bool has_wildcard(const std::string& spec) {
  return spec.find_first_of("*?") != std::string::npos;
}

bool is_netlist_path(const std::string& spec) {
  return ends_with(spec, ".bench") || ends_with(spec, ".v");
}

// Resolves one manifest entry: relative entries prefer the manifest's own
// directory so a manifest can travel with its netlists.
std::string resolve_entry(const std::string& entry, const fs::path& base) {
  if (entry.empty() || fs::path(entry).is_absolute()) return entry;
  const fs::path local = base / entry;
  std::error_code ec;
  if (fs::exists(local, ec)) return local.string();
  return entry;
}

}  // namespace

bool glob_match(const std::string& pattern, const std::string& text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::string> expand_glob(const std::string& pattern) {
  const fs::path full(pattern);
  const fs::path dir =
      full.has_parent_path() ? full.parent_path() : fs::path(".");
  const std::string leaf = full.filename().string();
  if (has_wildcard(dir.string()))
    throw std::invalid_argument(
        "glob wildcards are only supported in the final path component: " +
        pattern);

  std::vector<std::string> matches;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!glob_match(leaf, name)) continue;
    matches.push_back(full.has_parent_path() ? (dir / name).string() : name);
  }
  if (ec)
    throw std::runtime_error("cannot expand glob '" + pattern +
                             "': " + ec.message());
  if (matches.empty())
    throw std::runtime_error("glob matched no files: " + pattern);
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<std::string> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest: " + path);
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string spec{trim(line)};
    if (!spec.empty()) specs.push_back(spec);
  }
  return specs;
}

std::vector<std::string> expand_specs(const std::vector<std::string>& specs) {
  std::vector<std::string> expanded;
  for (const std::string& spec : specs) {
    if (has_wildcard(spec)) {
      for (std::string& match : expand_glob(spec))
        expanded.push_back(std::move(match));
      continue;
    }
    if (itc::is_profile_name(spec) || is_netlist_path(spec)) {
      expanded.push_back(spec);
      continue;
    }
    std::error_code ec;
    if (fs::is_regular_file(spec, ec)) {
      // Any other existing file is a manifest.  Entries may be globs, but
      // not further manifests (no recursion).
      const fs::path base = fs::path(spec).parent_path();
      for (const std::string& raw : read_manifest(spec)) {
        const std::string entry = resolve_entry(raw, base);
        if (has_wildcard(entry)) {
          for (std::string& match : expand_glob(entry))
            expanded.push_back(std::move(match));
        } else {
          expanded.push_back(entry);
        }
      }
      continue;
    }
    // Unknown spec: keep it so the batch reports a per-entry load failure.
    expanded.push_back(spec);
  }
  return expanded;
}

}  // namespace netrev::pipeline
