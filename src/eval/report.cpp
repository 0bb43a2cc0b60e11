#include "eval/report.h"

#include "common/text.h"
#include "exec/degrade.h"
#include "jsonout/jsonout.h"

namespace netrev::eval {

namespace {

std::string json_number(double value) {
  // Stable fixed formatting; metrics are percentages/fractions.
  return format_fixed(value, 4);
}

std::string bits_array(const netlist::Netlist& nl,
                       const std::vector<netlist::NetId>& bits) {
  std::string out = "[";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonout::quote(nl.net(bits[i]).name);
  }
  out += "]";
  return out;
}

std::string words_array(const netlist::Netlist& nl,
                        const wordrec::WordSet& words) {
  std::string out = "[";
  bool first = true;
  for (const wordrec::Word& word : words.words) {
    if (word.width() < 2) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"width\":" + std::to_string(word.width()) +
           ",\"bits\":" + bits_array(nl, word.bits) + "}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string words_to_json(const netlist::Netlist& nl,
                          const wordrec::WordSet& words) {
  return jsonout::document("\"words\":" + words_array(nl, words));
}

std::string identify_result_to_json(const netlist::Netlist& nl,
                                    const wordrec::IdentifyResult& result) {
  std::string out = "{" + jsonout::version_field() + ",";
  out += "\"multibit_words\":" +
         std::to_string(result.words.count_multibit()) + ",";

  out += "\"control_signals\":[";
  for (std::size_t i = 0; i < result.used_control_signals.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonout::quote(nl.net(result.used_control_signals[i]).name);
  }
  out += "],";

  out += "\"unified\":[";
  for (std::size_t i = 0; i < result.unified.size(); ++i) {
    if (i > 0) out += ",";
    const wordrec::UnifiedWord& word = result.unified[i];
    out += "{\"bits\":" + bits_array(nl, word.bits) + ",\"assignment\":{";
    for (std::size_t k = 0; k < word.assignment.size(); ++k) {
      if (k > 0) out += ",";
      out += jsonout::quote(nl.net(word.assignment[k].first).name) + ":" +
             (word.assignment[k].second ? "1" : "0");
    }
    out += "}}";
  }
  out += "],";

  const wordrec::IdentifyStats& stats = result.stats;
  out += "\"stats\":{";
  out += "\"groups\":" + std::to_string(stats.groups) + ",";
  out += "\"subgroups\":" + std::to_string(stats.subgroups) + ",";
  out += "\"partial_subgroups\":" + std::to_string(stats.partial_subgroups) + ",";
  out += "\"control_signal_candidates\":" +
         std::to_string(stats.control_signal_candidates) + ",";
  out += "\"reduction_trials\":" + std::to_string(stats.reduction_trials) + ",";
  out += "\"unified_subgroups\":" + std::to_string(stats.unified_subgroups);
  out += "},";

  out += "\"words\":" + words_array(nl, result.words) + ",";

  // Always present ("degraded":null when the run completed at full fidelity)
  // so a run finishing under its deadline is byte-identical to a run with no
  // deadline at all.
  if (result.degraded()) {
    out += "\"degraded\":{\"level\":\"" +
           std::string(exec::degrade_level_name(result.degrade_level)) +
           "\",\"stage\":\"" + jsonout::escape(result.degrade_stage) +
           "\",\"reason\":\"" + jsonout::escape(result.degrade_reason) + "\"}";
  } else {
    out += "\"degraded\":null";
  }
  out += "}";
  return out;
}

std::string evaluation_to_json(const EvaluationSummary& summary,
                               std::span<const ReferenceWord> reference) {
  std::string out = "{" + jsonout::version_field() + ",";
  out += "\"reference_words\":" + std::to_string(summary.reference_words) + ",";
  out += "\"fully_found\":" + std::to_string(summary.fully_found) + ",";
  out += "\"partially_found\":" + std::to_string(summary.partially_found) + ",";
  out += "\"not_found\":" + std::to_string(summary.not_found) + ",";
  out += "\"full_pct\":" + json_number(summary.full_fraction * 100.0) + ",";
  out += "\"not_found_pct\":" +
         json_number(summary.not_found_fraction * 100.0) + ",";
  out += "\"avg_fragmentation\":" + json_number(summary.avg_fragmentation) + ",";
  out += "\"per_word\":[";
  for (std::size_t i = 0; i < summary.per_word.size(); ++i) {
    if (i > 0) out += ",";
    const WordEvaluation& eval = summary.per_word[i];
    const char* outcome = eval.outcome == WordOutcome::kFullyFound
                              ? "full"
                              : eval.outcome == WordOutcome::kNotFound
                                    ? "not_found"
                                    : "partial";
    out += "{\"register\":\"" +
           jsonout::escape(i < reference.size()
                               ? reference[i].register_name
                               : std::string()) +
           "\",\"outcome\":\"" + outcome +
           "\",\"pieces\":" + std::to_string(eval.pieces) + "}";
  }
  out += "]}";
  return out;
}

std::string evaluate_doc_to_json(const std::string& evaluation_json,
                                 const std::string& analysis_json) {
  return jsonout::document("\"evaluation\":" + evaluation_json +
                           ",\"analysis\":" + analysis_json);
}

std::string analysis_to_json(const netlist::Netlist& nl,
                             const analysis::AnalysisResult& result) {
  std::string out = "{" + jsonout::version_field() + ",\"findings\":[";
  for (std::size_t i = 0; i < result.findings.size(); ++i) {
    if (i > 0) out += ",";
    const analysis::Finding& finding = result.findings[i];
    out += "{\"rule\":\"" + jsonout::escape(finding.rule) + "\",";
    out += "\"severity\":\"" +
           std::string(diag::severity_name(finding.severity)) + "\",";
    out += "\"message\":\"" + jsonout::escape(finding.message) + "\",";
    out += "\"fix_hint\":\"" + jsonout::escape(finding.fix_hint) + "\",";
    out += "\"nets\":" + bits_array(nl, finding.nets) + "}";
  }
  out += "],";
  out += "\"errors\":" + std::to_string(result.error_count()) + ",";
  out += "\"warnings\":" + std::to_string(result.warning_count()) + ",";
  out += "\"notes\":" + std::to_string(result.note_count()) + ",";
  out += "\"rules_run\":" + std::to_string(result.rules_run);
  out += "}";
  return out;
}

std::string table_to_json(std::span<const Table1Row> rows) {
  std::string members = "\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) members += ",";
    members += table_row_to_json(rows[i]);
  }
  members += "]";
  return jsonout::document(members);
}

std::string table_row_to_json(const Table1Row& row) {
  const auto cells = [](const TechniqueCells& c) {
    std::string out = "{";
    out += "\"full_pct\":" + json_number(c.full_pct) + ",";
    out += "\"fragmentation\":" + json_number(c.fragmentation) + ",";
    out += "\"not_found_pct\":" + json_number(c.not_found_pct) + ",";
    out += "\"seconds\":" + json_number(c.seconds) + ",";
    out += "\"control_signals\":" + std::to_string(c.control_signals);
    out += "}";
    return out;
  };
  std::string out = "{";
  out += "\"benchmark\":\"" + jsonout::escape(row.benchmark) + "\",";
  out += "\"gates\":" + std::to_string(row.gates) + ",";
  out += "\"nets\":" + std::to_string(row.nets) + ",";
  out += "\"flops\":" + std::to_string(row.flops) + ",";
  out += "\"reference_words\":" + std::to_string(row.reference_words) + ",";
  out += "\"avg_word_size\":" + json_number(row.avg_word_size) + ",";
  out += "\"base\":" + cells(row.base) + ",";
  out += "\"ours\":" + cells(row.ours);
  out += "}";
  return out;
}

}  // namespace netrev::eval
