#include "pipeline/journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace netrev::pipeline {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each case as its own parallel process,
    // so a shared directory would be wiped out from under a sibling.
    dir_ = fs::temp_directory_path() /
           (std::string("netrev_journal_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "journal.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string read_all() const {
    std::ifstream in(path_);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  fs::path dir_;
  std::string path_;
};

BatchEntry ok_entry() {
  BatchEntry entry;
  entry.spec = "b03s";
  entry.status = EntryStatus::kOk;
  // Nested JSON with quotes and backslashes — the flat-line escaping must
  // round-trip it byte-for-byte.
  entry.identify_json = "{\"multibit_words\":7,\"words\":[\"a\\\\b\"]}";
  entry.analysis_json = "{\"findings\":[]}";
  entry.evaluation_json = "{\"recall\":100.0}";
  entry.diagnostics_json = "";
  entry.degrade_level = "groups";
  entry.degrade_stage = "full";
  entry.multibit_words = 7;
  entry.control_signals = 1;
  entry.lint_errors = 0;
  entry.lint_warnings = 2;
  entry.lint_notes = 3;
  return entry;
}

BatchEntry failed_entry() {
  BatchEntry entry;
  entry.spec = "/tmp/broken.bench";
  entry.status = EntryStatus::kFailed;
  entry.failed_stage = "load";
  entry.error = "cannot open file: /tmp/broken.bench";
  return entry;
}

TEST(JournalKey, IsSixteenLowercaseHexDigits) {
  const std::string key = journal_key(0x1234, 0x5678);
  EXPECT_EQ(key.size(), 16u);
  for (char c : key)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
}

TEST(JournalKey, CoversBothContentAndOptions) {
  const std::string base = journal_key(1, 2);
  EXPECT_NE(journal_key(3, 2), base) << "content change not in the key";
  EXPECT_NE(journal_key(1, 4), base) << "options change not in the key";
  EXPECT_EQ(journal_key(1, 2), base) << "key is not deterministic";
}

TEST_F(JournalTest, RoundTripsOkAndFailedEntries) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", ok_entry());
    writer.append("00000000000000bb", failed_entry());
  }
  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 2u);

  const BatchEntry& ok = records[0].entry;
  EXPECT_EQ(records[0].key, "00000000000000aa");
  EXPECT_EQ(ok.spec, "b03s");
  EXPECT_EQ(ok.status, EntryStatus::kOk);
  EXPECT_EQ(ok.identify_json, ok_entry().identify_json);
  EXPECT_EQ(ok.analysis_json, ok_entry().analysis_json);
  EXPECT_EQ(ok.evaluation_json, ok_entry().evaluation_json);
  EXPECT_EQ(ok.diagnostics_json, "");
  EXPECT_EQ(ok.degrade_level, "groups");
  EXPECT_EQ(ok.degrade_stage, "full");
  EXPECT_EQ(ok.multibit_words, 7u);
  EXPECT_EQ(ok.control_signals, 1u);
  EXPECT_EQ(ok.lint_warnings, 2u);
  EXPECT_EQ(ok.lint_notes, 3u);

  const BatchEntry& failed = records[1].entry;
  EXPECT_EQ(records[1].key, "00000000000000bb");
  EXPECT_EQ(failed.status, EntryStatus::kFailed);
  EXPECT_EQ(failed.failed_stage, "load");
  EXPECT_EQ(failed.error, "cannot open file: /tmp/broken.bench");
}

TEST_F(JournalTest, EachEntryIsOneFlushedLine) {
  JournalWriter writer(path_);
  writer.append("00000000000000aa", ok_entry());
  // No close, no flush call from the test: crash-safety demands the line is
  // already durable in the stream's file.
  const std::string text = read_all();
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST_F(JournalTest, MissingFileReadsAsEmpty) {
  EXPECT_TRUE(read_journal((dir_ / "never_written.jsonl").string()).empty());
}

TEST_F(JournalTest, TornFinalLineIsIgnored) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", ok_entry());
    writer.append("00000000000000bb", failed_entry());
  }
  // Simulate a SIGKILL mid-append: chop the file mid-way through line 2.
  std::string text = read_all();
  const std::size_t first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  std::ofstream(path_, std::ios::trunc)
      << text.substr(0, first_newline + 1 + 25);
  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "00000000000000aa");
}

TEST_F(JournalTest, MalformedAndForeignLinesAreSkipped) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", ok_entry());
  }
  std::ofstream out(path_, std::ios::app);
  out << "not json at all\n";
  out << "{\"v\":3,\"key\":\"00000000000000cc\",\"spec\":\"x\","
         "\"status\":\"ok\"}\n";  // future version (v1 and v2 are ours)
  out << "{\"v\":1,\"key\":\"short\",\"spec\":\"x\",\"status\":\"ok\"}\n";
  out << "{\"v\":1,\"key\":\"00000000000000dd\",\"spec\":\"x\","
         "\"status\":\"skipped\"}\n";  // only ok|failed may be journaled
  // Integers past 2^64-1 are never interpreted: 2^64+1 must not wrap to a
  // v1 record, nor a 20-digit count to some other count.
  out << "{\"v\":18446744073709551617,\"key\":\"00000000000000ee\","
         "\"spec\":\"x\",\"status\":\"ok\"}\n";
  out << "{\"v\":1,\"key\":\"00000000000000ef\",\"spec\":\"x\","
         "\"status\":\"ok\",\"words\":99999999999999999999}\n";
  // Values outside the flat shape (string, non-negative integer, null).
  for (const char* value : {"true", "[1]", "{\"n\":1}", "-1", "1.5"})
    out << "{\"v\":1,\"key\":\"00000000000000f0\",\"spec\":\"x\","
           "\"status\":\"ok\",\"lint_notes\":"
        << value << "}\n";
  // A repeated key resolves to its FIRST occurrence: this line is v3.
  out << "{\"v\":3,\"key\":\"00000000000000f1\",\"spec\":\"x\","
         "\"status\":\"ok\",\"v\":1}\n";
  out.close();
  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "00000000000000aa");
}

TEST_F(JournalTest, DuplicateKeysReadBackInFileOrderSoLaterWins) {
  // read_journal() returns raw records in file order; consumers (run_batch's
  // restore map) overwrite by key, so the later append wins.
  BatchEntry first = ok_entry();
  first.multibit_words = 1;
  BatchEntry second = ok_entry();
  second.multibit_words = 9;
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", first);
    writer.append("00000000000000aa", second);
  }
  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].entry.multibit_words, 1u);
  EXPECT_EQ(records[1].entry.multibit_words, 9u);
}

TEST_F(JournalTest, AppendingToAnExistingJournalPreservesOldRecords) {
  { JournalWriter(path_).append("00000000000000aa", ok_entry()); }
  { JournalWriter(path_).append("00000000000000bb", failed_entry()); }
  EXPECT_EQ(read_journal(path_).size(), 2u);
}

TEST_F(JournalTest, UnopenablePathThrows) {
  EXPECT_THROW(JournalWriter((dir_ / "no_dir" / "j.jsonl").string()),
               std::runtime_error);
}

TEST_F(JournalTest, RenderedLineMatchesWhatAppendWrites) {
  { JournalWriter(path_).append("00000000000000aa", ok_entry()); }
  EXPECT_EQ(read_all(), render_journal_line("00000000000000aa", ok_entry()));
}

TEST_F(JournalTest, CompactionKeepsTheLastRecordPerKeyInFileOrder) {
  BatchEntry stale = ok_entry();
  stale.multibit_words = 1;
  BatchEntry fresh = ok_entry();
  fresh.multibit_words = 9;
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", stale);
    writer.append("00000000000000bb", ok_entry());
    writer.append("00000000000000aa", fresh);  // supersedes the first line
    writer.append("00000000000000cc", failed_entry());
  }

  const CompactionStats stats = compact_journal(path_);
  EXPECT_EQ(stats.kept, 3u);
  EXPECT_EQ(stats.dropped, 1u);

  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 3u);
  // Survivors keep their original relative order.
  EXPECT_EQ(records[0].key, "00000000000000bb");
  EXPECT_EQ(records[1].key, "00000000000000aa");
  EXPECT_EQ(records[2].key, "00000000000000cc");
  // ...and the surviving aa record is the later one.
  EXPECT_EQ(records[1].entry.multibit_words, 9u);
}

TEST_F(JournalTest, CompactionIsResumeEquivalent) {
  // Resume builds a key -> entry map where later lines win; compaction must
  // preserve exactly that view.
  BatchEntry first = ok_entry();
  first.multibit_words = 1;
  BatchEntry second = ok_entry();
  second.multibit_words = 2;
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", first);
    writer.append("00000000000000aa", second);
    writer.append("00000000000000bb", failed_entry());
  }
  const std::vector<JournalRecord> before = read_journal(path_);
  (void)compact_journal(path_);
  const std::vector<JournalRecord> after = read_journal(path_);

  const auto winners = [](const std::vector<JournalRecord>& records) {
    std::vector<std::pair<std::string, std::size_t>> out;
    for (const JournalRecord& record : records) {
      bool found = false;
      for (auto& [key, words] : out)
        if (key == record.key) {
          words = record.entry.multibit_words;
          found = true;
        }
      if (!found) out.emplace_back(record.key, record.entry.multibit_words);
    }
    return out;
  };
  EXPECT_EQ(winners(before), winners(after));
}

TEST_F(JournalTest, CompactionDropsTornAndForeignLines) {
  { JournalWriter(path_).append("00000000000000aa", ok_entry()); }
  std::ofstream(path_, std::ios::app)
      << "not json at all\n"
      << "{\"v\":1,\"key\":\"00000000000000bb\",\"spec\":\"x";  // torn
  const CompactionStats stats = compact_journal(path_);
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  // The rewritten journal is byte-identical to a freshly written one.
  EXPECT_EQ(read_all(), render_journal_line("00000000000000aa", ok_entry()));
}

TEST_F(JournalTest, CompactingAMissingJournalIsANoOp) {
  const CompactionStats stats = compact_journal(path_);
  EXPECT_EQ(stats.kept, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_FALSE(fs::exists(path_));
}

TEST_F(JournalTest, CompactionIsIdempotent) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000aa", ok_entry());
    writer.append("00000000000000aa", ok_entry());
  }
  (void)compact_journal(path_);
  const std::string once = read_all();
  const CompactionStats again = compact_journal(path_);
  EXPECT_EQ(again.kept, 1u);
  EXPECT_EQ(again.dropped, 0u);
  EXPECT_EQ(read_all(), once);
}

// --- v2 (crashed) records ----------------------------------------------------

BatchEntry crashed_entry() {
  BatchEntry entry;
  entry.spec = "b04s";
  entry.status = EntryStatus::kCrashed;
  entry.crash = "signal 11 (SIGSEGV)";
  entry.crash_signal = 11;
  return entry;
}

TEST_F(JournalTest, CrashedEntriesRoundTripAsV2Records) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000cc", crashed_entry());
  }
  const std::vector<JournalRecord> records = read_journal(path_);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].entry.status, EntryStatus::kCrashed);
  EXPECT_EQ(records[0].entry.crash, "signal 11 (SIGSEGV)");
  EXPECT_EQ(records[0].entry.crash_signal, 11u);
}

TEST_F(JournalTest, OnlyCrashedRecordsAreVersionTwo) {
  // ok/failed lines must keep their v1 bytes: a journal written by this
  // build and read by the previous release (no isolation) must restore
  // every non-crashed entry.
  EXPECT_EQ(render_journal_line("00000000000000aa", ok_entry())
                .rfind("{\"v\":1,", 0),
            0u);
  EXPECT_EQ(render_journal_line("00000000000000bb", failed_entry())
                .rfind("{\"v\":1,", 0),
            0u);
  const std::string crashed =
      render_journal_line("00000000000000cc", crashed_entry());
  EXPECT_EQ(crashed.rfind("{\"v\":2,", 0), 0u);
  EXPECT_NE(crashed.find("\"status\":\"crashed\""), std::string::npos);
  EXPECT_NE(crashed.find("\"crash\":\"signal 11 (SIGSEGV)\""),
            std::string::npos);
  EXPECT_NE(crashed.find("\"signal\":11"), std::string::npos);
}

TEST_F(JournalTest, CrashedStatusRequiresVersionTwo) {
  // A v1 line claiming "crashed" is foreign (v1 predates the status) and
  // must be skipped, not half-parsed.
  std::string line = render_journal_line("00000000000000cc", crashed_entry());
  const std::string::size_type v = line.find("{\"v\":2,");
  ASSERT_EQ(v, 0u);
  line.replace(0, 7, "{\"v\":1,");
  JournalRecord record;
  EXPECT_FALSE(parse_journal_line(line, record));
}

TEST_F(JournalTest, CompactionPreservesCrashedRecords) {
  {
    JournalWriter writer(path_);
    writer.append("00000000000000cc", crashed_entry());
  }
  const CompactionStats stats = compact_journal(path_);
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_EQ(read_all(),
            render_journal_line("00000000000000cc", crashed_entry()));
}

}  // namespace
}  // namespace netrev::pipeline
