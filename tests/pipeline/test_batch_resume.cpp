// Crash-safe resume: a journaled batch interrupted at any point must be
// completable by a later `--resume` run whose final output is byte-identical
// to the uninterrupted run — no duplicated work, no lost entries, and stale
// journal lines (edited inputs, different options) never match.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "pipeline/batch.h"
#include "pipeline/journal.h"

namespace netrev {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kFamilies = {"b03s", "b04s", "b08s"};

class BatchResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each case as its own parallel process,
    // so a shared directory would be wiped out from under a sibling.
    dir_ = fs::temp_directory_path() /
           (std::string("netrev_batch_resume_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    journal_ = (dir_ / "journal.jsonl").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  pipeline::BatchOptions resume_options() const {
    pipeline::BatchOptions options;
    options.resume_path = journal_;
    return options;
  }

  std::string write_bench(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  fs::path dir_;
  std::string journal_;
};

TEST_F(BatchResumeTest, ResumedRunMatchesUninterruptedByteForByte) {
  // "Interrupted" run that only got through the first entry.
  const pipeline::BatchResult partial =
      pipeline::run_batch({kFamilies[0]}, resume_options());
  EXPECT_TRUE(partial.all_ok());
  EXPECT_EQ(partial.resumed, 0u);
  ASSERT_EQ(pipeline::read_journal(journal_).size(), 1u);

  const pipeline::BatchResult resumed =
      pipeline::run_batch(kFamilies, resume_options());
  EXPECT_EQ(resumed.resumed, 1u);
  EXPECT_TRUE(resumed.all_ok()) << resumed.render_text();

  const pipeline::BatchResult uninterrupted = pipeline::run_batch(kFamilies);
  EXPECT_EQ(resumed.to_json(), uninterrupted.to_json());

  // No lost and no duplicated entries: one journal line per spec.
  EXPECT_EQ(pipeline::read_journal(journal_).size(), kFamilies.size());
}

TEST_F(BatchResumeTest, CancelledEntriesAreNeverJournaled) {
  pipeline::BatchOptions options = resume_options();
  options.config.exec.cancel.request_cancel();  // SIGINT before any work
  const pipeline::BatchResult result = pipeline::run_batch(kFamilies, options);
  EXPECT_TRUE(result.interrupted());
  EXPECT_EQ(result.cancelled, kFamilies.size());
  EXPECT_FALSE(result.all_ok());
  // Nothing finished, so nothing may be recorded as finished.
  EXPECT_TRUE(pipeline::read_journal(journal_).empty());
}

TEST_F(BatchResumeTest, InterruptedMidBatchThenResumedLosesNothing) {
  // Entry 1 finishes; then the run is interrupted (cancel token = SIGINT).
  ASSERT_TRUE(pipeline::run_batch({kFamilies[0]}, resume_options()).all_ok());

  pipeline::BatchOptions cancelled = resume_options();
  cancelled.config.exec.cancel.request_cancel();
  const pipeline::BatchResult interrupted =
      pipeline::run_batch(kFamilies, cancelled);
  // The journaled entry is restored even in the interrupted run; the rest
  // are cancelled, not failed and not journaled.
  EXPECT_EQ(interrupted.resumed, 1u);
  EXPECT_EQ(interrupted.ok, 1u);
  EXPECT_EQ(interrupted.cancelled, kFamilies.size() - 1);
  EXPECT_TRUE(interrupted.interrupted());
  EXPECT_EQ(pipeline::read_journal(journal_).size(), 1u);

  // The recovery run completes the remainder and matches a clean run.
  const pipeline::BatchResult recovered =
      pipeline::run_batch(kFamilies, resume_options());
  EXPECT_EQ(recovered.resumed, 1u);
  EXPECT_TRUE(recovered.all_ok());
  EXPECT_EQ(recovered.to_json(), pipeline::run_batch(kFamilies).to_json());
  EXPECT_EQ(pipeline::read_journal(journal_).size(), kFamilies.size());
}

TEST_F(BatchResumeTest, FailedEntriesAreJournaledAndRestored) {
  const std::string missing = (dir_ / "nope.bench").string();
  pipeline::BatchOptions options = resume_options();
  options.keep_going = true;
  const pipeline::BatchResult first =
      pipeline::run_batch({missing, kFamilies[0]}, options);
  EXPECT_EQ(first.failed, 1u);
  EXPECT_EQ(first.ok, 1u);
  EXPECT_EQ(pipeline::read_journal(journal_).size(), 2u);

  const pipeline::BatchResult again =
      pipeline::run_batch({missing, kFamilies[0]}, options);
  EXPECT_EQ(again.resumed, 2u) << "recorded failure was recomputed";
  EXPECT_EQ(again.to_json(),
            pipeline::run_batch({missing, kFamilies[0]},
                                [&] {
                                  pipeline::BatchOptions fresh;
                                  fresh.keep_going = true;
                                  return fresh;
                                }())
                .to_json());
}

TEST_F(BatchResumeTest, DifferentOptionsNeverMatchTheJournal) {
  pipeline::BatchOptions deep = resume_options();
  deep.config.wordrec.cone_depth = 2;
  ASSERT_TRUE(pipeline::run_batch({kFamilies[0]}, deep).all_ok());

  // Same journal, default options: the recorded outcome must not be reused.
  const pipeline::BatchResult other =
      pipeline::run_batch({kFamilies[0]}, resume_options());
  EXPECT_EQ(other.resumed, 0u);
  EXPECT_TRUE(other.all_ok());
}

TEST_F(BatchResumeTest, EditedInputFileNeverMatchesTheJournal) {
  const std::string path = write_bench(
      "tiny.bench", "INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = AND(a, b)\n");
  ASSERT_TRUE(pipeline::run_batch({path}, resume_options()).all_ok());
  EXPECT_EQ(pipeline::run_batch({path}, resume_options()).resumed, 1u);

  // Edit the file: its content hash — and therefore its key — changes.
  std::ofstream(path) << "INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = OR(a, b)\n";
  const pipeline::BatchResult edited =
      pipeline::run_batch({path}, resume_options());
  EXPECT_EQ(edited.resumed, 0u) << "stale journal entry matched edited file";
  EXPECT_TRUE(edited.all_ok());
}

TEST_F(BatchResumeTest, ResumedRunIsByteStableAtAnyJobCount) {
  ASSERT_TRUE(
      pipeline::run_batch({kFamilies[0], kFamilies[1]}, resume_options())
          .all_ok());
  ThreadPool::set_global_jobs(1);
  const std::string serial =
      pipeline::run_batch(kFamilies, resume_options()).to_json();
  ThreadPool::set_global_jobs(4);
  const std::string parallel =
      pipeline::run_batch(kFamilies, resume_options()).to_json();
  ThreadPool::set_global_jobs(0);
  EXPECT_EQ(serial, parallel);
}

// Resume journals written by earlier builds key on these bytes: the batch
// options fingerprint (lift, wordrec, analysis and exec knobs, plus the
// slots of retired batch switches) mixed with the input's content hash.
// The value was recorded with a default run_batch({"b03s"}).
TEST(BatchResume, DefaultJournalKeyMatchesRecordedValue) {
  const fs::path dir =
      fs::temp_directory_path() / "netrev_batch_resume_default_key";
  fs::remove_all(dir);
  fs::create_directories(dir);
  pipeline::BatchOptions options;
  options.resume_path = (dir / "journal.jsonl").string();
  ASSERT_TRUE(pipeline::run_batch({"b03s"}, options).all_ok());
  const std::vector<pipeline::JournalRecord> records =
      pipeline::read_journal(options.resume_path);
  fs::remove_all(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "87811c5e0bf97676");
}

}  // namespace
}  // namespace netrev
