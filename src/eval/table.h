// Table 1 assembly: one row per benchmark comparing Base (shape hashing [6])
// against Ours, plus the averages row.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "eval/reference.h"
#include "wordrec/identify.h"
#include "wordrec/word.h"

namespace netrev::eval {

// One technique's identification of one design, timed: a Table 1 column's
// input (Session::run produces it).
struct TechniqueRun {
  wordrec::WordSet words;
  double seconds = 0.0;
  std::size_t control_signals = 0;     // 0 for the baseline
  wordrec::IdentifyStats stats;        // zeroed for the baseline
};

struct TechniqueCells {
  double full_pct = 0.0;       // % of reference words fully found
  double fragmentation = 0.0;  // avg normalized fragmentation of partials
  double not_found_pct = 0.0;  // % of reference words not found
  double seconds = 0.0;
  std::size_t control_signals = 0;
};

struct Table1Row {
  std::string benchmark;
  std::size_t gates = 0;
  std::size_t nets = 0;
  std::size_t flops = 0;
  std::size_t reference_words = 0;
  double avg_word_size = 0.0;
  TechniqueCells base;
  TechniqueCells ours;
};

TechniqueCells make_cells(const EvaluationSummary& summary,
                          const TechniqueRun& run);

Table1Row make_row(const std::string& benchmark, const netlist::Netlist& nl,
                   const ReferenceExtraction& reference,
                   const TechniqueRun& base_run, const TechniqueRun& ours_run);

// Renders the table in the paper's layout (Base and Ours sub-rows per
// benchmark).  When `include_average` is set, appends the averages row the
// paper reports (mean of percentage/fragmentation/time columns).
std::string render_table1(std::span<const Table1Row> rows,
                          bool include_average = true);

// Averages over rows, mirroring the paper's bottom row.
Table1Row average_row(std::span<const Table1Row> rows);

}  // namespace netrev::eval
