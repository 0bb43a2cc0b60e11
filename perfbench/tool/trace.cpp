// The traced run: spans around each layer's public calls, made from here.
//
// Per design, in input order:
//   1. the calls `netrev batch` makes for one entry (load, lint, identify,
//      render, lift, evaluate), each in its own span under an "entry" span;
//   2. one identify_words with an IdentifyTrace attached (the serial path);
//   3. kReplays times, back to back: an untraced identify_words at jobs 1,
//      then a replay of the traced run's layers through public calls —
//      grouping, hashing, matching, control extraction, and per trial
//      propagate() + rehash — checked against the trace and IdentifyStats;
//   4. an untraced identify_words at the workload's job count.
// Then the request script is replayed serially through an in-process
// protocol::Executor on a fresh cache, and every response line is written
// out for run.py to compare with the daemon's.
#include "tool.h"

#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.h"
#include "eval/diagnose.h"
#include "eval/report.h"
#include "jsonout/jsonout.h"
#include "pipeline/protocol.h"
#include "pipeline/session.h"
#include "spans.h"
#include "wordrec/assignment.h"
#include "wordrec/control.h"
#include "wordrec/grouping.h"
#include "wordrec/hash_key.h"
#include "wordrec/identify.h"
#include "wordrec/matching.h"
#include "wordrec/trace.h"

namespace perfbench {
namespace {

using netrev::jsonout::quote;
using netrev::netlist::NetId;
using netrev::wordrec::TraceRecord;
using Scope = SpanRecorder::Scope;

// Untraced-identify + replay pairs per design.  wordrec.other_s is the
// untraced identify minus the replayed layers of the same pair; run.py
// reports the median over the pairs.
constexpr std::size_t kReplays = 3;

// One identify_words with an IdentifyTrace attached.
struct TracedIdentify {
  netrev::wordrec::IdentifyStats stats;
  netrev::wordrec::IdentifyTrace trace;
};

// What one replay of a traced identify found, for trace.json.
struct ReplayOutcome {
  std::size_t trials = 0;         // kTrial records replayed
  std::size_t nets_assigned = 0;  // sum of AssignmentMap::size()
  std::string error;              // first disagreement, "" if none
};

// The verdict half of identify.cpp's trial_unifies: every bit stays
// non-constant and all signatures under the assignment are equal, with at
// least one subtree left.  Stops at the first mismatch, as the program does.
bool rehash_unifies(const netrev::wordrec::ConeHasher& hasher,
                    const std::vector<NetId>& bits,
                    const netrev::wordrec::AssignmentMap& map) {
  std::optional<netrev::wordrec::BitSignature> first;
  for (NetId bit : bits) {
    netrev::wordrec::BitSignature sig = hasher.signature(bit, &map);
    if (!sig.root_type.has_value()) return false;
    if (!first) {
      first = std::move(sig);
    } else if (!first->structurally_equal(sig)) {
      return false;
    }
  }
  return first.has_value() && !first->subtrees.empty();
}

TracedIdentify trace_identify(SpanRecorder& rec, const std::string& entry,
                              const netrev::netlist::Netlist& nl,
                              netrev::wordrec::Options options) {
  TracedIdentify traced;
  options.trace = &traced.trace;
  Scope span(rec, "wordrec.identify_traced", entry);
  traced.stats = netrev::wordrec::identify_words(nl, options).stats;
  return traced;
}

ReplayOutcome replay_identify(SpanRecorder& rec, const std::string& entry,
                              const netrev::netlist::Netlist& nl,
                              const netrev::wordrec::Options& options,
                              const TracedIdentify& traced) {
  ReplayOutcome outcome;
  const auto fail = [&](const std::string& what) {
    if (outcome.error.empty()) outcome.error = what;
  };
  const netrev::wordrec::ConeHasher hasher(nl, options);

  Scope replay(rec, "wordrec.replay", entry);
  std::vector<netrev::wordrec::PotentialBitGroup> groups;
  {
    Scope span(rec, "wordrec.grouping", entry);
    groups = netrev::wordrec::potential_bit_groups(nl);
    if (options.cross_group_checking)
      groups = netrev::wordrec::merge_groups_across_gaps(
          nl, std::move(groups), options.cross_group_max_gap);
  }
  std::vector<std::vector<netrev::wordrec::BitSignature>> signatures(
      groups.size());
  {
    Scope span(rec, "wordrec.hashing", entry);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      signatures[g].reserve(groups[g].size());
      for (NetId bit : groups[g])
        signatures[g].push_back(hasher.signature(bit));
    }
  }
  std::vector<netrev::wordrec::Subgroup> partial;
  {
    Scope span(rec, "wordrec.matching", entry);
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (netrev::wordrec::Subgroup& subgroup :
           netrev::wordrec::form_subgroups(groups[g], signatures[g], false))
        if (!subgroup.fully_similar) partial.push_back(std::move(subgroup));
  }
  signatures.clear();
  std::vector<std::vector<NetId>> controls(partial.size());
  {
    Scope span(rec, "wordrec.control", entry);
    for (std::size_t i = 0; i < partial.size(); ++i)
      controls[i] =
          netrev::wordrec::find_relevant_control_signals(nl, partial[i],
                                                         options);
  }
  if (partial.size() != traced.stats.partial_subgroups)
    fail("replay found " + std::to_string(partial.size()) +
         " partial subgroups, identify_words reported " +
         std::to_string(traced.stats.partial_subgroups));

  // Walk the trace in order: each partial subgroup's record is followed by
  // its control signals, its trials, then kUnified or kFallback.
  std::size_t subgroup = 0;
  const std::vector<NetId>* bits = nullptr;
  const std::vector<TraceRecord>& records = traced.trace.records;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const TraceRecord& record = records[r];
    switch (record.kind) {
      case TraceRecord::Kind::kPartialSubgroup:
        bits = &record.nets;
        if (subgroup >= partial.size() || partial[subgroup].bits != *bits)
          fail("partial subgroup " + std::to_string(subgroup) +
               " differs between trace and replay");
        ++subgroup;
        break;
      case TraceRecord::Kind::kControlSignals:
        if (subgroup == 0 || subgroup > controls.size() ||
            controls[subgroup - 1] != record.nets)
          fail("control signals of subgroup " + std::to_string(subgroup) +
               " differ between trace and replay");
        break;
      case TraceRecord::Kind::kTrial: {
        if (bits == nullptr) {
          fail("trial record before any partial subgroup");
          break;
        }
        netrev::wordrec::PropagationResult propagated;
        {
          Scope span(rec, "wordrec.propagate", entry);
          propagated = netrev::wordrec::propagate(nl, record.assignment);
        }
        bool unifies = false;
        if (propagated.feasible) {
          Scope span(rec, "wordrec.rehash", entry);
          unifies = rehash_unifies(hasher, *bits, propagated.map);
        }
        const bool expected = r + 1 < records.size() &&
                              records[r + 1].kind ==
                                  TraceRecord::Kind::kUnified;
        if (propagated.feasible != record.flag || unifies != expected)
          fail("trial " + std::to_string(outcome.trials) +
               " verdict differs between trace and replay");
        outcome.nets_assigned += propagated.map.size();
        ++outcome.trials;
        break;
      }
      case TraceRecord::Kind::kUnified:
      case TraceRecord::Kind::kFallback:
        break;
    }
  }
  if (outcome.trials != traced.stats.reduction_trials)
    fail("replayed " + std::to_string(outcome.trials) +
         " trials, IdentifyStats::reduction_trials is " +
         std::to_string(traced.stats.reduction_trials));
  return outcome;
}

std::string stats_json(const netrev::wordrec::IdentifyStats& stats) {
  return "{\"groups\":" + std::to_string(stats.groups) +
         ",\"subgroups\":" + std::to_string(stats.subgroups) +
         ",\"partial_subgroups\":" + std::to_string(stats.partial_subgroups) +
         ",\"reduction_trials\":" + std::to_string(stats.reduction_trials) +
         ",\"unified_subgroups\":" + std::to_string(stats.unified_subgroups) +
         "}";
}

std::string cache_json(const netrev::pipeline::ArtifactCache& cache) {
  return "{\"hits\":" + std::to_string(cache.hits()) +
         ",\"misses\":" + std::to_string(cache.misses()) +
         ",\"evictions\":" + std::to_string(cache.evictions()) +
         ",\"entries\":" + std::to_string(cache.size()) + "}";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int run_trace(const TraceArgs& args) {
  SpanRecorder rec;
  netrev::pipeline::ArtifactCache session_cache;
  netrev::Session session(netrev::RunConfig{}, &session_cache);

  std::string designs_json;
  for (std::size_t i = 0; i < args.designs.size(); ++i) {
    const std::string& path = args.designs[i];
    netrev::ThreadPool::set_global_jobs(args.entry_jobs);
    netrev::LoadedDesign design;
    std::shared_ptr<const netrev::netlist::CompactView> view;
    {
      Scope entry(rec, "entry", path);
      {
        Scope span(rec, "parser.load", path);
        design = session.load_netlist(path);
      }
      {
        Scope span(rec, "netlist.compact", path);
        view = session.compact(design);
      }
      {
        Scope span(rec, "analysis.lint", path);
        netrev::eval::analysis_to_json(design.nl(), *session.analyze(design));
      }
      {
        Scope span(rec, "wordrec.total", path);
        session.identify(design);
      }
      std::string identify_json;
      {
        Scope span(rec, "jsonout.render", path);
        identify_json = session.identify_json(design);
      }
      write_file(args.out_dir + "/identify_" + std::to_string(i) + ".json",
                 identify_json + "\n");
      {
        Scope span(rec, "lift.lift", path);
        session.lift_json(design);
      }
      {
        Scope span(rec, "eval.evaluate", path);
        const auto reference = session.reference(design);
        if (!reference->words.empty()) {
          const netrev::eval::Diagnosis diagnosis = netrev::eval::diagnose(
              design.nl(), session.identify(design)->words, *reference);
          netrev::eval::evaluation_to_json(diagnosis.summary,
                                           reference->words);
        }
      }
    }

    netrev::wordrec::Options options = session.config().wordrec;
    options.compact = view.get();
    netrev::ThreadPool::set_global_jobs(1);
    const TracedIdentify traced =
        trace_identify(rec, path, design.nl(), options);
    // Each untraced identify runs right before its replay, so the pair sees
    // the same host speed.  The replays agree in every count; keep the
    // first, or a later one that found a disagreement.
    ReplayOutcome replay;
    for (std::size_t k = 0; k < kReplays; ++k) {
      {
        Scope span(rec, "common.identify_jobs1", path);
        netrev::wordrec::identify_words(design.nl(), options);
      }
      ReplayOutcome again =
          replay_identify(rec, path, design.nl(), options, traced);
      if (k == 0 || (replay.error.empty() && !again.error.empty()))
        replay = std::move(again);
    }
    netrev::ThreadPool::set_global_jobs(args.jobs);
    {
      Scope span(rec, "common.identify_jobsN", path);
      netrev::wordrec::identify_words(design.nl(), options);
    }

    if (i > 0) designs_json += ",";
    designs_json += "{\"path\":" + quote(path) +
                    ",\"stats\":" + stats_json(traced.stats) +
                    ",\"trials_replayed\":" + std::to_string(replay.trials) +
                    ",\"nets_assigned\":" +
                    std::to_string(replay.nets_assigned) +
                    ",\"replay_error\":" + quote(replay.error) + "}";
  }

  // The serial Executor replay of the request script, on a fresh cache.
  if (!args.script.empty()) {
    netrev::ThreadPool::set_global_jobs(args.jobs);
    netrev::pipeline::ArtifactCache replay_cache;
    netrev::pipeline::protocol::ExecutorConfig config;
    config.cache = &replay_cache;
    netrev::pipeline::protocol::Executor executor(config);
    std::ifstream script(args.script);
    if (!script) throw std::runtime_error("cannot read " + args.script);
    const std::string responses_path = args.out_dir + "/responses.ndjson";
    std::ofstream responses(responses_path, std::ios::binary);
    std::string line;
    while (std::getline(script, line)) {
      if (line.empty()) continue;
      const auto parsed = netrev::pipeline::protocol::parse_request(line);
      if (!parsed.request)
        throw std::runtime_error("bad script line: " + parsed.error);
      netrev::pipeline::protocol::Response response;
      {
        Scope span(rec, "pipeline.execute", parsed.request->id);
        response = executor.execute(*parsed.request,
                                    netrev::exec::CancelToken{});
      }
      responses << netrev::pipeline::protocol::render_response(response)
                << '\n';
    }
    if (!responses.flush())
      throw std::runtime_error("cannot write " + responses_path);
  }

  rec.write_jsonl(args.out_dir + "/spans.jsonl");
  write_file(args.out_dir + "/trace.json",
             "{\"designs\":[" + designs_json +
                 "],\"session_cache\":" + cache_json(session_cache) + "}\n");
  return 0;
}

}  // namespace perfbench
