// Recorded-digest oracle for the two netlist readers.
//
// Each (profile, format) pair folds a fixed corpus of reads into one
// fnv1a64: the clean source written from the Table 1 profile, plus 20 seeds
// of each of the five corruption kinds in tests/support/corrupt.h.  Every
// source is read twice:
//   strict      -> the exception's what() (message plus "at line L, column
//                  C"), or the netlist_fingerprint when the read succeeds;
//   permissive  -> the netlist_fingerprint of whatever was recovered plus
//                  diags.to_json().
// The fingerprint covers the design name, every net name, net ids and their
// order, port flags and gate order, so any drift in what a reader builds or
// reports moves the digest.  A second corpus of hand-written edge cases
// (empty input, CRLF, missing newline, empty port names, escaped and
// bus-bit identifiers, unterminated comments, ...) does the same per format.
//
// The values below were recorded from the string-copying readers that the
// view-based ones replaced; the readers must reproduce them exactly.  On a
// mismatch the failure message carries the computed value.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "common/diagnostics.h"
#include "common/resource_guard.h"
#include "itc/family.h"
#include "netlist/netlist.h"
#include "parser/bench_parser.h"
#include "parser/lexer.h"
#include "parser/parse_options.h"
#include "parser/verilog_parser.h"
#include "parser/verilog_writer.h"
#include "pipeline/fingerprint.h"
#include "support/corrupt.h"

namespace netrev::parser {
namespace {

enum class Format { kBench, kVerilog };

// Keeps the parameter's printed form (part of the test's ctest name)
// readable and stable.
void PrintTo(Format format, std::ostream* os) {
  *os << (format == Format::kBench ? "bench" : "verilog");
}

constexpr std::uint64_t kSeedsPerKind = 20;

netlist::Netlist read(Format format, std::string_view source,
                      const ParseOptions& options, diag::Diagnostics& diags) {
  return format == Format::kBench ? parse_bench(source, options, diags)
                                  : parse_verilog(source, options, diags);
}

// Appends one source's strict and permissive outcomes to `transcript`.
// Returns true when the strict read failed.
bool record_reads(Format format, std::string_view source,
                  const std::string& label, std::string& transcript) {
  bool strict_failed = true;
  transcript += "strict ";
  try {
    diag::Diagnostics diags;
    ParseOptions options;
    options.filename = label;
    const netlist::Netlist nl = read(format, source, options, diags);
    transcript += "ok " + pipeline::hex16(pipeline::netlist_fingerprint(nl));
    strict_failed = false;
  } catch (const ParseError& err) {
    transcript += std::string("parse-error ") + err.what();
  } catch (const ResourceLimitError& err) {
    transcript += std::string("limit ") + err.what();
  } catch (const std::invalid_argument& err) {
    transcript += std::string("invalid-argument ") + err.what();
  }
  transcript += "\npermissive ";
  try {
    diag::Diagnostics diags;
    ParseOptions options;
    options.permissive = true;
    options.filename = label;
    const netlist::Netlist nl = read(format, source, options, diags);
    transcript += pipeline::hex16(pipeline::netlist_fingerprint(nl)) + ' ' +
                  diags.to_json();
  } catch (const std::invalid_argument& err) {
    transcript += std::string("invalid-argument ") + err.what();
  }
  transcript += '\n';
  return strict_failed;
}

struct CorpusDigest {
  std::uint64_t digest = 0;
  std::size_t reads = 0;
  std::size_t strict_errors = 0;
};

CorpusDigest corrupted_corpus_digest(const std::string& profile,
                                     Format format) {
  const netlist::Netlist clean = itc::build_benchmark(profile).netlist;
  const std::string source = format == Format::kBench
                                 ? write_bench(clean)
                                 : write_verilog(clean);
  const std::string label =
      profile + (format == Format::kBench ? ".bench" : ".v");
  CorpusDigest result;
  std::string transcript = "clean\n";
  result.strict_errors += record_reads(format, source, label, transcript);
  ++result.reads;
  for (testing::CorruptionKind kind : testing::kAllCorruptionKinds) {
    for (std::uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
      transcript += std::string(testing::corruption_name(kind)) + ' ' +
                    std::to_string(seed) + '\n';
      const std::string damaged = testing::corrupt(source, kind, seed);
      result.strict_errors += record_reads(format, damaged, label, transcript);
      ++result.reads;
    }
  }
  result.digest = pipeline::fnv1a64(transcript);
  return result;
}

struct RecordedParseDigests {
  std::string_view name;
  std::uint64_t bench;
  std::uint64_t verilog;
};

constexpr RecordedParseDigests kRecorded[] = {
    {"b03s", 0x165833ac2ad4f3f0ull, 0x0e2c225f6a57cca8ull},
    {"b04s", 0x82beae93b929c020ull, 0x66f0c4eb15155998ull},
    {"b05s", 0x8ad46a5cf96b3be1ull, 0xb7fc2c1e9fe30497ull},
    {"b07s", 0x1d09523cd1160e1full, 0x87813463c2ef93a2ull},
    {"b08s", 0x352d441044f8940cull, 0xe72c4fa463da3967ull},
    {"b11s", 0x02cd113f196d18ddull, 0x160a097515f1a697ull},
    {"b12s", 0x1962f2a378777b70ull, 0x3c791d1ab666f955ull},
    {"b13s", 0x932b37e7d2285b17ull, 0xddf9d36f45429cb4ull},
    {"b14s", 0x8c8d76c9cd94680bull, 0xd7cfc27e519758c1ull},
    {"b15s", 0x7fc7b7cd1a0bd358ull, 0xfdb58a0961a16dc6ull},
    {"b17s", 0x5dc46748e8dfcd1full, 0xd6495fc5f20f6856ull},
    {"b18s", 0x6785bbfc4e27084bull, 0xc7baf4c377972796ull},
};

// One case per (profile, format), so ctest spreads the large profiles over
// its workers.
class ParseDigest
    : public ::testing::TestWithParam<std::tuple<std::string, Format>> {};

TEST_P(ParseDigest, CorruptedReadsMatchRecordedDigests) {
  const auto [profile, format] = GetParam();
  const RecordedParseDigests* recorded = nullptr;
  for (const RecordedParseDigests& entry : kRecorded)
    if (entry.name == profile) recorded = &entry;
  ASSERT_NE(recorded, nullptr) << "no recorded digests for " << profile;

  const CorpusDigest corpus = corrupted_corpus_digest(profile, format);
  EXPECT_EQ(corpus.reads, 1 + 5 * kSeedsPerKind);
  // The corpus must exercise the error paths, not only clean reads.
  EXPECT_GT(corpus.strict_errors, 0u);
  const bool bench = format == Format::kBench;
  EXPECT_EQ(corpus.digest, bench ? recorded->bench : recorded->verilog)
      << profile << (bench ? ".bench" : ".v") << " reads drifted: 0x"
      << pipeline::hex16(corpus.digest) << " (" << corpus.strict_errors
      << " strict errors)";
}

INSTANTIATE_TEST_SUITE_P(
    FamilyBenchmarks, ParseDigest,
    ::testing::Combine(::testing::Values<std::string>(
                           "b03s", "b04s", "b05s", "b07s", "b08s", "b11s",
                           "b12s", "b13s", "b14s", "b15s", "b17s", "b18s"),
                       ::testing::Values(Format::kBench, Format::kVerilog)),
    [](const ::testing::TestParamInfo<ParseDigest::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == Format::kBench ? "_bench" : "_v");
    });

// Small sources aimed at the readers' edges: line splitting, trimming,
// column arithmetic, empty names, and each lexer branch.
constexpr const char* kBenchEdgeCases[] = {
    "",
    "\n",
    "INPUT(a)",
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a)",
    "INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)\r\n",
    "INPUT()\n",
    "OUTPUT( )\n",
    "INPUT( a )\nOUTPUT(\ty\t)\ny=NOT(a)\n",
    "INPUT(a\n",
    "OUTPUT y\n",
    "y = NOT(a\n",
    "y = NOT a)\n",
    "y = )NOT(\n",
    " = NOT(a)\n",
    "y = (a)\n",
    "y = NOT()\n",
    "y = AND(a, )\n",
    "y = AND(, a)\n",
    "y = AND(a,,b)\n",
    "y = AND(a b)\n",
    "y == NOT(a)\n",
    "y = MAJ(a, b, c)\n",
    "y = not(a)\n",
    "one = VDD()\nzero = GND()\ny = AND(one, zero)\n",
    "y = VDD(a)\n",
    "y = DFF(a, b)\n",
    "y = NOT(a)\ny = BUF(a)\n",
    "INPUT(a)\na = NOT(b)\n",
    "INPUT(a)\nINPUT(a)\ny = NOT(a)\n",
    "y = NOT(a) # trailing comment\n# whole line\n   \t\n",
    "#INPUT(a)\nOUTPUT(y)#x\ny = NOT(y)\n",
    "y = NOT(a)\n\n\n\n",
    "x = AND(a, b, c, d, e, f, g, h)\ny = OR(x, x)\n",
    "q = DFF(d)\nd = NOT(q)\nOUTPUT(q)\nINPUT(i)\n",
    "y = NOT((a))\n",
    "y = NOT(a)) \n",
    "\xff = NOT(\x01)\n",
};

constexpr const char* kVerilogEdgeCases[] = {
    "",
    "module",
    "module m;",
    "module m ();\nendmodule\n",
    "module m (a, y);\n input a;\n output y;\n not g1 (y, a);\nendmodule\n",
    "module m (a, y);\r\n input a;\r\n output y;\r\n not g1 (y, a);\r\n"
    "endmodule",
    "module m (a, y); input a; output y; NOT U1 (.Y(y), .A(a)); endmodule",
    "module m (a, b, y); input a, b; output y;\n"
    "  NAND2_X1 U1 (.B(b), .Y(y), .A(a), .CK(clk));\nendmodule\n",
    "module m (d, q); input d; output q; DFF_X1 r (.Q(q), .D(d), .CK(c));"
    " endmodule",
    "module m (a[0], y); input a[0], a [1]; output y;\n"
    "  and g (y, a[0], a [ 1 ]);\nendmodule\n",
    "module m (\\a.b , y); input \\a.b ; output y;\n"
    "  not g (y, \\a.b );\nendmodule\n",
    "module m (y); output y; assign y = 1'b0; endmodule",
    "module m (y); output y; assign y = 1'b1; endmodule",
    "module m (y); output y; assign y = 2'b10; endmodule",
    "module m (y); output y; assign y = 4'hF; endmodule",
    "module m (y); output y; assign y = 1'b; endmodule",
    "module m (y, a); input a; output y; assign y = a; endmodule",
    "module m (y); output y; /* unterminated\n assign y = 1'b0;",
    "module m (y); // comment\n output y; /* block\n comment */ assign y = "
    "1'b0;\nendmodule",
    "module m (y); output y; assign y = 1'b0;",
    "module m (y); output y; assign y = 1'b0; @ endmodule",
    "module m (y); output y; \\ assign y = 1'b0; endmodule",
    "module m (y); output y; MAJ3 U1 (y, a, b, c); endmodule",
    "module m (y); output y; nand (y, a, b); endmodule",
    "module m (y); output y; NAND2_X1 U1 (.A(a), .B(b)); endmodule",
    "module m (y); output y; and g (y, a[x]); endmodule",
    "module m (a, y); input a; output y; not g (a, y); endmodule",
    "module m (y); output y; not g1 (y, a); not g2 (y, b); endmodule",
    "module m (y); output y; dff r (y, a, b); endmodule",
    "module m (y); output y; 123 g (y); endmodule",
    "module m (y) output y; endmodule",
    "module m (y); output y; wire w1, w2; buf b1 (w1, w2); buf b2 (y, w1);\n"
    "endmodule\n",
    "module m (y); output y; and g (y, a,\n   b,\n\tc); endmodule",
    "module m(y);output y;assign y=1'b0;endmodule\n\n",
    "module m (y); output y; INV_X2 U1 (y, a); FD r1 (q, y); endmodule",
    "module m (y); output y; assign y = a[3]; endmodule",
    "module \xff (y); endmodule",
};

std::uint64_t edge_case_digest(Format format) {
  std::string transcript;
  const auto record = [&](const char* source) {
    transcript += std::string("case ") + source + '\n';
    record_reads(format, source, "edge", transcript);
  };
  if (format == Format::kBench) {
    for (const char* source : kBenchEdgeCases) record(source);
  } else {
    for (const char* source : kVerilogEdgeCases) record(source);
  }
  return pipeline::fnv1a64(transcript);
}

constexpr std::uint64_t kRecordedBenchEdgeCases = 0x516dbefb92bc8851ull;
constexpr std::uint64_t kRecordedVerilogEdgeCases = 0x7c304227a4fab503ull;

TEST(ParseDigest, EdgeCasesMatchRecordedDigests) {
  const std::uint64_t bench = edge_case_digest(Format::kBench);
  const std::uint64_t verilog = edge_case_digest(Format::kVerilog);
  EXPECT_EQ(bench, kRecordedBenchEdgeCases)
      << ".bench edge cases drifted: 0x" << pipeline::hex16(bench);
  EXPECT_EQ(verilog, kRecordedVerilogEdgeCases)
      << ".v edge cases drifted: 0x" << pipeline::hex16(verilog);
}

}  // namespace
}  // namespace netrev::parser
