#include "pipeline/journal.h"

#include <stdexcept>
#include <unordered_map>

#include "common/atomic_file.h"
#include "jsonin/jsonin.h"
#include "jsonout/jsonout.h"
#include "pipeline/fingerprint.h"

namespace netrev::pipeline {

namespace {

// Accepts exactly the flat shape the writer emits: one object whose values
// are strings, non-negative integers, or null (read as absent).  Any other
// value fails the whole line.  A string where a count is expected, or a
// count where a string is expected, reads as absent.
bool record_from(const jsonin::Value& object, JournalRecord& record) {
  using Kind = jsonin::Value::Kind;
  if (object.kind != Kind::kObject) return false;
  for (const auto& member : object.object) {
    const jsonin::Value& value = member.second;
    if (value.kind != Kind::kString && value.kind != Kind::kNull &&
        (value.kind != Kind::kNumber || !value.integral))
      return false;
  }
  const auto str = [&](const char* key) -> const std::string* {
    const jsonin::Value* value = object.find(key);
    return value != nullptr && value->kind == Kind::kString ? &value->string
                                                            : nullptr;
  };
  const auto num = [&](const char* key) -> std::uint64_t {
    const jsonin::Value* value = object.find(key);
    return value != nullptr && value->kind == Kind::kNumber ? value->number
                                                            : 0;
  };

  const std::uint64_t v = num("v");
  if (v != 1 && v != 2) return false;
  const std::string* key = str("key");
  const std::string* spec = str("spec");
  const std::string* status = str("status");
  if (key == nullptr || spec == nullptr || status == nullptr) return false;
  if (key->size() != 16) return false;

  record.key = *key;
  record.entry.spec = *spec;
  if (*status == "ok") {
    record.entry.status = EntryStatus::kOk;
  } else if (*status == "failed") {
    record.entry.status = EntryStatus::kFailed;
  } else if (*status == "crashed" && v >= 2) {
    record.entry.status = EntryStatus::kCrashed;
  } else {
    return false;  // journals never hold skipped/cancelled entries
  }

  const auto copy = [&](const char* name, std::string& into) {
    if (const std::string* value = str(name)) into = *value;
  };
  copy("stage", record.entry.failed_stage);
  copy("error", record.entry.error);
  copy("identify", record.entry.identify_json);
  copy("lift", record.entry.lift_json);
  copy("analysis", record.entry.analysis_json);
  copy("evaluation", record.entry.evaluation_json);
  copy("diagnostics", record.entry.diagnostics_json);
  copy("degrade_level", record.entry.degrade_level);
  copy("degrade_stage", record.entry.degrade_stage);
  copy("crash", record.entry.crash);
  record.entry.crash_signal = num("signal");
  record.entry.multibit_words = num("words");
  record.entry.control_signals = num("control_signals");
  record.entry.lint_errors = num("lint_errors");
  record.entry.lint_warnings = num("lint_warnings");
  record.entry.lint_notes = num("lint_notes");
  return true;
}

}  // namespace

std::string journal_key(std::uint64_t content, std::uint64_t options_fp) {
  return hex16(mix(content, options_fp));
}

JournalWriter::JournalWriter(const std::string& path)
    : path_(path), out_(path, std::ios::app) {
  if (!out_)
    throw std::runtime_error("cannot open journal for append: " + path);
}

void JournalWriter::append(const std::string& key, const BatchEntry& entry) {
  const std::string line = render_journal_line(key, entry);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line;
  out_.flush();  // one line per entry survives a crash right after
}

std::string render_journal_line(const std::string& key,
                                const BatchEntry& entry) {
  // v2 is written ONLY for crashed entries: ok/failed lines stay
  // byte-identical to what pre-isolation builds wrote, so journals remain
  // interchangeable between isolated and non-isolated runs.
  const bool crashed = entry.status == EntryStatus::kCrashed;
  std::string line =
      std::string("{\"v\":") + (crashed ? "2" : "1") + ",\"key\":" +
      jsonout::quote(key);
  line += ",\"spec\":" + jsonout::quote(entry.spec);
  line += ",\"status\":";
  line += crashed ? "\"crashed\""
                  : (entry.status == EntryStatus::kOk ? "\"ok\""
                                                      : "\"failed\"");
  if (crashed) {
    line += ",\"crash\":" + jsonout::quote(entry.crash);
    line += ",\"signal\":" + std::to_string(entry.crash_signal);
  }
  line += ",\"stage\":" + jsonout::quote(entry.failed_stage);
  line += ",\"error\":" + jsonout::quote(entry.error);
  line += ",\"identify\":" + jsonout::quote(entry.identify_json);
  line += ",\"lift\":" + jsonout::quote(entry.lift_json);
  line += ",\"analysis\":" + jsonout::quote(entry.analysis_json);
  line += ",\"evaluation\":" + jsonout::quote(entry.evaluation_json);
  line += ",\"diagnostics\":" + jsonout::quote(entry.diagnostics_json);
  line += ",\"degrade_level\":" + jsonout::quote(entry.degrade_level);
  line += ",\"degrade_stage\":" + jsonout::quote(entry.degrade_stage);
  line += ",\"words\":" + std::to_string(entry.multibit_words);
  line += ",\"control_signals\":" + std::to_string(entry.control_signals);
  line += ",\"lint_errors\":" + std::to_string(entry.lint_errors);
  line += ",\"lint_warnings\":" + std::to_string(entry.lint_warnings);
  line += ",\"lint_notes\":" + std::to_string(entry.lint_notes);
  line += "}\n";
  return line;
}

bool parse_journal_line(const std::string& line, JournalRecord& record) {
  // A trailing newline is whitespace to the reader.
  jsonin::Value object;
  std::string error;
  return jsonin::parse(line, object, error) && record_from(object, record);
}

std::vector<JournalRecord> read_journal(const std::string& path) {
  std::vector<JournalRecord> records;
  std::ifstream in(path);
  if (!in) return records;  // no journal yet: resuming from nothing
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalRecord record;
    if (!parse_journal_line(line, record)) continue;  // torn/foreign line
    records.push_back(std::move(record));
  }
  return records;
}

CompactionStats compact_journal(const std::string& path) {
  CompactionStats stats;
  const std::vector<JournalRecord> records = read_journal(path);
  if (records.empty()) return stats;  // nothing to compact (or no journal)

  // Later lines win, so a record survives iff it is the LAST occurrence of
  // its key; survivors keep their original relative order.
  std::unordered_map<std::string, std::size_t> last_index;
  for (std::size_t i = 0; i < records.size(); ++i)
    last_index[records[i].key] = i;

  std::string compacted;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (last_index[records[i].key] != i) {
      ++stats.dropped;
      continue;
    }
    compacted += render_journal_line(records[i].key, records[i].entry);
    ++stats.kept;
  }
  io::write_file_atomic(path, compacted);
  return stats;
}

}  // namespace netrev::pipeline
