// Machine-readable (JSON) reports for downstream tooling: identified words,
// pipeline stats, evaluation summaries, and Table 1 rows.  All emission goes
// through the shared netrev::jsonout policy module: every top-level document
// carries `"schema_version"` as its first field, escaping is uniform across
// surfaces, and output is byte-deterministic (see docs/FORMATS.md).
#pragma once

#include <span>
#include <string>

#include "analysis/analyzer.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "netlist/netlist.h"
#include "wordrec/identify.h"
#include "wordrec/word.h"

namespace netrev::eval {

// Words as {"schema_version":1,"words":[{"width":N,"bits":[...]}]} — only
// multi-bit words.
std::string words_to_json(const netlist::Netlist& nl,
                          const wordrec::WordSet& words);

// Full identification result: words, control signals, unified words with
// their assignments, pipeline stats.
std::string identify_result_to_json(const netlist::Netlist& nl,
                                    const wordrec::IdentifyResult& result);

// Per-reference-word outcomes plus the aggregate metrics.
std::string evaluation_to_json(const EvaluationSummary& summary,
                               std::span<const ReferenceWord> reference);

// The combined `evaluate --json` document, shared verbatim by the CLI and
// the serve protocol so daemon bytes equal one-shot bytes:
// {"schema_version":1,"evaluation":<evaluation_json>,"analysis":<analysis_json>}
std::string evaluate_doc_to_json(const std::string& evaluation_json,
                                 const std::string& analysis_json);

// One Table 1 row (unversioned: always embedded in table_to_json).
std::string table_row_to_json(const Table1Row& row);

// The `table --json` document: {"schema_version":1,"rows":[<row>,...]}.
std::string table_to_json(std::span<const Table1Row> rows);

// Static-analysis findings with per-severity counts:
// {"schema_version":1,"findings":[{"rule":...,"severity":...,"message":...,
//  "fix_hint":...,"nets":[...]}],"errors":N,"warnings":N,"notes":N,
//  "rules_run":N}
std::string analysis_to_json(const netlist::Netlist& nl,
                             const analysis::AnalysisResult& result);

}  // namespace netrev::eval
