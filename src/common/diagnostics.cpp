#include "common/diagnostics.h"

#include "jsonout/jsonout.h"

namespace netrev::diag {

std::string SourceLocation::to_string() const {
  if (file.empty() && !has_position()) return {};
  if (file.empty())
    return "line " + std::to_string(line) + ", column " + std::to_string(column);
  if (!has_position()) return file;
  return file + ":" + std::to_string(line) + ":" + std::to_string(column);
}

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kFatal: return "fatal";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::string out(severity_name(severity));
  out += ": ";
  out += message;
  const std::string where = location.to_string();
  if (!where.empty()) {
    out += " at ";
    out += where;
  }
  return out;
}

bool Diagnostics::report(Severity severity, std::string message,
                         SourceLocation location) {
  ++reported_;
  ++counts_[static_cast<std::size_t>(severity)];
  if (entries_.size() >= max_total_) return false;
  entries_.push_back(
      Diagnostic{severity, std::move(message), std::move(location)});
  return true;
}

std::string Diagnostics::to_string() const {
  std::string out;
  for (const Diagnostic& entry : entries_) {
    out += entry.to_string();
    out += '\n';
  }
  if (suppressed_count() > 0)
    out += "(" + std::to_string(suppressed_count()) +
           " further diagnostic(s) suppressed)\n";
  return out;
}

std::string Diagnostics::to_json() const {
  std::string out = "{" + jsonout::version_field() + ",\"diagnostics\":[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Diagnostic& entry = entries_[i];
    if (i > 0) out += ',';
    out += "{\"severity\":\"";
    out += severity_name(entry.severity);
    out += "\",\"message\":\"" + jsonout::escape(entry.message) + "\"";
    if (!entry.location.file.empty())
      out += ",\"file\":\"" + jsonout::escape(entry.location.file) + "\"";
    if (entry.location.has_position()) {
      out += ",\"line\":" + std::to_string(entry.location.line);
      out += ",\"column\":" + std::to_string(entry.location.column);
    }
    out += '}';
  }
  out += "],\"notes\":" + std::to_string(note_count());
  out += ",\"warnings\":" + std::to_string(warning_count());
  out += ",\"errors\":" + std::to_string(error_count());
  out += ",\"fatal\":" + std::to_string(fatal_count());
  out += ",\"suppressed\":" + std::to_string(suppressed_count());
  out += '}';
  return out;
}

}  // namespace netrev::diag
