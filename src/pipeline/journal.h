// Crash-safe batch journal: an append-only JSONL record of completed batch
// entries, keyed by the same content/options fingerprints that address the
// artifact cache.
//
// Each finished entry (ok, failed, or crashed — never cancelled, never
// skipped) is
// appended as ONE line and flushed, so a SIGKILL at any instant loses at
// most the line being written.  read_journal() tolerates exactly that: a
// torn final line (or any line that does not parse) is ignored.  `netrev
// batch --resume <journal>` restores recorded outcomes by key and only
// computes what is missing; because the key covers the input bytes and every
// option that changes an entry's output, a stale journal entry (edited file,
// different flags) simply never matches and the entry is recomputed.
//
// Line format (version 1) — one flat JSON object, nested stage JSON stored
// as escaped strings.  The reader could take nested values; the format stays
// flat because every build since v1 reads only this shape, and ok/failed
// lines must stay readable by them:
//
//   {"v":1,"key":"<16 hex>","spec":"...","status":"ok|failed",
//    "stage":"...","error":"...","identify":"...","lift":"...",
//    "analysis":"...","evaluation":"...","diagnostics":"...",
//    "degrade_level":"...","degrade_stage":"...","words":N,
//    "control_signals":N,"lint_errors":N,"lint_warnings":N,"lint_notes":N}
//
// Version 2 extends v1 with quarantined crashes from isolated runs
// (`batch --isolate`): status "crashed" plus the supervisor's
// classification.  ok/failed entries keep writing v1 lines byte-identically
// — v2 is emitted ONLY for crashed entries, so journals from non-isolated
// runs are indistinguishable from pre-isolation builds, and the reader
// accepts both versions:
//
//   {"v":2,...,"status":"crashed","crash":"signal 11 (SIGSEGV)","signal":11}
//
// Lines are read with the serve protocol's reader (src/jsonin/) and its
// bounds; a repeated key resolves to its first occurrence.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "pipeline/batch.h"

namespace netrev::pipeline {

// One journal line: a finished batch entry plus the key identifying it.
struct JournalRecord {
  std::string key;
  BatchEntry entry;
};

// The journal key for one batch entry: content hash of the input (raw file
// bytes, or "family:<name>" for built benchmarks) mixed with the batch
// options fingerprint, rendered as 16 lowercase hex digits.
std::string journal_key(std::uint64_t content, std::uint64_t options_fp);

// Append-side handle.  Opens for append (creating the file if missing);
// throws std::runtime_error when the path cannot be opened.  append() is
// thread-safe — entries finish on pool workers — and flushes per line.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path);

  const std::string& path() const { return path_; }

  void append(const std::string& key, const BatchEntry& entry);

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mutex_;
};

// Reads every parseable record, in file order.  A missing or unreadable
// file yields an empty journal (resuming from nothing is starting fresh);
// torn or malformed lines are skipped.  Later records win on duplicate keys
// (a rerun may legitimately re-append an entry).
std::vector<JournalRecord> read_journal(const std::string& path);

// One rendered journal line including the trailing newline — the exact bytes
// JournalWriter::append writes, shared with compaction so a compacted
// journal is indistinguishable from a freshly written one.
std::string render_journal_line(const std::string& key,
                                const BatchEntry& entry);

// Parses one journal line (trailing newline optional) into a record; false
// on torn, malformed, or foreign lines.  Exposed for the worker protocol:
// an isolated batch entry travels the wire as exactly one journal line, so
// supervisor and worker agree on the bytes by construction.
bool parse_journal_line(const std::string& line, JournalRecord& record);

// `batch --compact-journal`: rewrites the journal keeping only the winning
// (last) record per key, in their original file order, through the atomic
// temp+rename writer — a crash mid-compaction leaves the old journal intact.
// Torn/foreign lines are dropped as a side effect.  A missing file is a
// no-op.  Resuming from the compacted journal restores exactly the same
// outcomes as the original (later-lines-win already ignored the dropped
// records).
struct CompactionStats {
  std::size_t kept = 0;     // surviving records (unique keys)
  std::size_t dropped = 0;  // superseded duplicates removed
};
CompactionStats compact_journal(const std::string& path);

}  // namespace netrev::pipeline
