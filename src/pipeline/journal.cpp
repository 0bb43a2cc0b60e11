#include "pipeline/journal.h"

#include <cctype>
#include <stdexcept>
#include <unordered_map>

#include "common/atomic_file.h"
#include "jsonout/jsonout.h"
#include "pipeline/fingerprint.h"

namespace netrev::pipeline {

namespace {

// --- flat JSON line reader -------------------------------------------------
// Parses exactly the shape the writer emits: one object whose values are
// strings, unsigned integers, or null.  Anything else fails the line.

struct FlatObject {
  std::unordered_map<std::string, std::string> strings;
  std::unordered_map<std::string, std::uint64_t> numbers;
};

class FlatParser {
 public:
  explicit FlatParser(const std::string& text) : text_(text) {}

  bool parse(FlatObject& out) {
    skip_ws();
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return at_end();
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (peek() == '"') {
        std::string value;
        if (!parse_string(value)) return false;
        out.strings[key] = std::move(value);
      } else if (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
        std::uint64_t value = 0;
        if (!parse_number(value)) return false;
        out.numbers[key] = value;
      } else if (consume_word("null")) {
        // absent value; nothing stored
      } else {
        return false;
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return at_end();
      return false;
    }
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  bool consume_word(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }
  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

  bool parse_number(std::uint64_t& out) {
    out = 0;
    bool any = false;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      out = out * 10 + static_cast<std::uint64_t>(peek() - '0');
      ++pos_;
      any = true;
    }
    return any;
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            int digit = hex_digit(text_[pos_ + static_cast<std::size_t>(i)]);
            if (digit < 0) return false;
            code = code * 16 + digit;
          }
          pos_ += 4;
          // The writer only escapes control bytes (<0x20); anything larger
          // passes through raw, so a one-byte append is sufficient here.
          if (code > 0xff) return false;
          out += static_cast<char>(code);
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated (torn line)
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool record_from(const FlatObject& object, JournalRecord& record) {
  const auto str = [&](const char* key) -> const std::string* {
    const auto it = object.strings.find(key);
    return it == object.strings.end() ? nullptr : &it->second;
  };
  const auto num = [&](const char* key) -> std::uint64_t {
    const auto it = object.numbers.find(key);
    return it == object.numbers.end() ? 0 : it->second;
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
  std::string trimmed = line;
  while (!trimmed.empty() &&
         (trimmed.back() == '\n' || trimmed.back() == '\r'))
    trimmed.pop_back();
  FlatObject object;
  if (!FlatParser(trimmed).parse(object)) return false;
  return record_from(object, record);
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
