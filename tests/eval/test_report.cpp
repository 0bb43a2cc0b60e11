#include "eval/report.h"

#include <gtest/gtest.h>

#include "itc/family.h"
#include "wordrec/identify.h"

namespace netrev::eval {
namespace {

using netlist::GateType;
using netlist::NetId;
using netlist::Netlist;

TEST(WordsJson, EmitsMultibitWordsOnly) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId c = nl.add_net("c");
  nl.mark_primary_input(a);
  nl.mark_primary_input(b);
  nl.mark_primary_input(c);

  wordrec::WordSet words;
  words.words.push_back(wordrec::Word{{a, b}});
  words.words.push_back(wordrec::Word{{c}});

  const std::string json = words_to_json(nl, words);
  EXPECT_EQ(json,
            R"({"schema_version":1,"words":[{"width":2,"bits":["a","b"]}]})");
}

TEST(IdentifyJson, ContainsAllSections) {
  const auto bench = itc::build_benchmark("b08s");
  const auto result = wordrec::identify_words(bench.netlist);
  const std::string json = identify_result_to_json(bench.netlist, result);
  for (const char* key :
       {"\"multibit_words\"", "\"control_signals\"", "\"unified\"",
        "\"stats\"", "\"words\"", "\"assignment\"", "\"reduction_trials\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // Balanced braces / brackets (cheap well-formedness check).
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{';
    braces -= ch == '}';
    brackets += ch == '[';
    brackets -= ch == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(EvaluationJson, PerWordOutcomes) {
  EvaluationSummary summary;
  summary.reference_words = 2;
  summary.fully_found = 1;
  summary.not_found = 1;
  summary.full_fraction = 0.5;
  summary.not_found_fraction = 0.5;
  summary.per_word = {{WordOutcome::kFullyFound, 1, 0.0},
                      {WordOutcome::kNotFound, 3, 0.0}};
  ReferenceWord words[2];
  words[0].register_name = "A_REG";
  words[1].register_name = "B_REG";
  const std::string json = evaluation_to_json(summary, words);
  EXPECT_NE(json.find("\"A_REG\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"not_found\""), std::string::npos);
  EXPECT_NE(json.find("\"full_pct\":50.0000"), std::string::npos);
}

TEST(TableRowJson, RoundTripsValues) {
  Table1Row row;
  row.benchmark = "b03s";
  row.gates = 169;
  row.flops = 30;
  row.base.full_pct = 71.4;
  row.ours.full_pct = 85.7;
  row.ours.control_signals = 1;
  const std::string json = table_row_to_json(row);
  EXPECT_NE(json.find("\"benchmark\":\"b03s\""), std::string::npos);
  EXPECT_NE(json.find("\"gates\":169"), std::string::npos);
  EXPECT_NE(json.find("\"full_pct\":71.4000"), std::string::npos);
  EXPECT_NE(json.find("\"control_signals\":1"), std::string::npos);
}

}  // namespace
}  // namespace netrev::eval
