#include "parser/bench_parser.h"

#include <algorithm>
#include <cstdint>

#include "common/atomic_file.h"
#include "common/text.h"
#include "exec/chaos.h"
#include "parser/lexer.h"

namespace netrev::parser {

namespace {

using netlist::GateType;
using netlist::Netlist;

// 1-based column of `sub` within the line buffer `base`.  Both views must
// point into the same underlying storage (substr/trim preserve this).
std::size_t column_of(std::string_view base, std::string_view sub) {
  return static_cast<std::size_t>(sub.data() - base.data()) + 1;
}

// One gate line, kept as views into the source; its arguments are a slice
// of the parse's shared argument array.
struct BenchGate {
  std::string_view output;
  std::string_view function;
  std::uint32_t first_arg = 0;
  std::uint32_t arg_count = 0;
  std::uint32_t line_number = 0;
  std::uint32_t output_column = 1;
  std::uint32_t function_column = 1;
};

// Parses "NAME = FUNC(arg, arg, ...)" into a BenchGate, appending its
// arguments to `args`; on a ParseError `args` may hold a partial tail the
// caller drops.  `base` is the raw line as read from the file; `line` is its
// comment-stripped, trimmed view into the same buffer, so reported columns
// are real file columns.
BenchGate parse_gate_line(std::string_view base, std::string_view line,
                          std::size_t line_number,
                          std::vector<std::string_view>& args) {
  BenchGate parsed;
  parsed.line_number = static_cast<std::uint32_t>(line_number);
  parsed.first_arg = static_cast<std::uint32_t>(args.size());
  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos)
    throw ParseError("expected '='", line_number, column_of(base, line));
  const std::string_view lhs = trim(line.substr(0, eq));
  parsed.output = lhs;
  parsed.output_column = static_cast<std::uint32_t>(
      lhs.empty() ? column_of(base, line) : column_of(base, lhs));
  std::string_view rhs = trim(line.substr(eq + 1));
  const std::size_t open = rhs.find('(');
  const std::size_t close = rhs.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open)
    throw ParseError("expected FUNC(args)", line_number,
                     rhs.empty() ? column_of(base, line) + eq + 1
                                 : column_of(base, rhs));
  const std::string_view func = trim(rhs.substr(0, open));
  parsed.function = func;
  parsed.function_column = static_cast<std::uint32_t>(
      func.empty() ? column_of(base, rhs) : column_of(base, func));
  const std::string_view fields = rhs.substr(open + 1, close - open - 1);
  if (!trim(fields).empty()) {
    std::size_t pos = 0;
    while (true) {
      const std::size_t comma = fields.find(',', pos);
      const std::string_view field =
          comma == std::string_view::npos ? fields.substr(pos)
                                          : fields.substr(pos, comma - pos);
      const auto arg = trim(field);
      if (arg.empty())
        throw ParseError("empty argument", line_number,
                         column_of(base, field));
      args.push_back(arg);
      if (comma == std::string_view::npos) break;
      pos = comma + 1;
    }
  }
  if (parsed.output.empty())
    throw ParseError("empty output name", line_number, parsed.output_column);
  parsed.arg_count = static_cast<std::uint32_t>(args.size() - parsed.first_arg);
  return parsed;
}

// The name inside "INPUT(name)" or "OUTPUT(name)": `line` is the trimmed
// line and `open` the length of its "INPUT(" or "OUTPUT(" prefix.
std::string_view port_name(std::string_view base, std::string_view line,
                           std::size_t open, std::size_t line_number) {
  const std::string_view inside = line.substr(open, line.size() - open - 1);
  const std::string_view name = trim(inside);
  if (name.empty())
    throw ParseError("empty port name", line_number, column_of(base, inside));
  return name;
}

GateType function_to_type(std::string_view function, std::size_t line,
                          std::size_t column) {
  if (auto type = netlist::gate_type_from_name(function)) return *type;
  if (function == "VDD") return GateType::kConst1;
  if (function == "GND") return GateType::kConst0;
  throw ParseError("unknown function '" + std::string(function) + "'", line,
                   column);
}

}  // namespace

Netlist parse_bench(std::string_view source, const ParseOptions& options,
                    diag::Diagnostics& diags) {
  exec::chaos_point("parse");
  const auto here = [&](std::size_t line, std::size_t column) {
    return diag::SourceLocation{options.filename, line, column};
  };

  if (source.size() > options.limits.max_file_bytes) {
    const std::string message =
        "input exceeds maximum file size (" + std::to_string(source.size()) +
        " > " + std::to_string(options.limits.max_file_bytes) + " bytes)";
    if (!options.permissive) throw ResourceLimitError(message);
    diags.fatal(message, here(0, 0));
    return Netlist("bench");
  }

  // One pass over the source: every '\n'-separated line (a trailing newline
  // ends in one last, empty line), kept as views into `source`.
  std::vector<std::string_view> inputs;
  std::vector<std::string_view> outputs;
  std::vector<BenchGate> gates;
  std::vector<std::string_view> args;

  std::size_t line_number = 0;
  for (std::size_t start = 0; start <= source.size();) {
    const std::size_t newline =
        std::min(source.find('\n', start), source.size());
    const std::string_view base = source.substr(start, newline - start);
    start = newline + 1;
    ++line_number;
    options.checkpoint.poll();
    if (options.permissive && diags.at_error_limit()) {
      diags.note("too many errors; giving up on the rest of the input",
                 here(line_number, 1));
      break;
    }
    std::string_view line = base;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t args_before = args.size();
    try {
      if (starts_with(line, "INPUT(") && line.back() == ')') {
        inputs.push_back(port_name(base, line, 6, line_number));
      } else if (starts_with(line, "OUTPUT(") && line.back() == ')') {
        outputs.push_back(port_name(base, line, 7, line_number));
      } else {
        gates.push_back(parse_gate_line(base, line, line_number, args));
      }
    } catch (const ParseError& err) {
      args.resize(args_before);
      if (!options.permissive) throw;
      diags.error(err.message() + "; line skipped",
                  here(err.line(), err.column()));
    }
  }

  Netlist nl("bench");
  nl.reserve(std::min(inputs.size() + outputs.size() + gates.size(),
                      options.limits.max_nets + 1),
             std::min(gates.size(), options.limits.max_gates + 1));
  const auto over_limits = [&] {
    return nl.net_count() > options.limits.max_nets ||
           nl.gate_count() > options.limits.max_gates;
  };
  const auto limit_failure = [&](std::size_t line) {
    const std::string message =
        "netlist exceeds resource limits (" + std::to_string(nl.net_count()) +
        " nets, " + std::to_string(nl.gate_count()) + " gates)";
    if (!options.permissive) throw ResourceLimitError(message);
    diags.fatal(message, here(line, 1));
  };

  for (std::string_view name : inputs)
    nl.mark_primary_input(nl.find_or_add_net(name));
  for (std::string_view name : outputs)
    nl.mark_primary_output(nl.find_or_add_net(name));
  if (over_limits()) {
    limit_failure(line_number);
    return nl;
  }
  std::vector<netlist::NetId> ins;
  for (const BenchGate& gate : gates) {
    if (options.permissive && diags.at_error_limit()) {
      diags.note("too many errors; giving up on the rest of the input",
                 here(gate.line_number, 1));
      break;
    }
    GateType type;
    try {
      type = function_to_type(gate.function, gate.line_number,
                              gate.function_column);
    } catch (const ParseError& err) {
      if (!options.permissive) throw;
      diags.error(err.message() + "; gate dropped",
                  here(err.line(), err.column()));
      continue;
    }
    const auto out = nl.find_or_add_net(gate.output);
    ins.clear();
    for (std::uint32_t k = 0; k < gate.arg_count; ++k)
      ins.push_back(nl.find_or_add_net(args[gate.first_arg + k]));
    try {
      nl.add_gate(type, out, ins);
    } catch (const std::invalid_argument& err) {
      if (!options.permissive)
        throw ParseError(err.what(), gate.line_number, gate.output_column);
      // Keep-first: a duplicate driver (or a gate driving a primary input)
      // drops the later gate; arity violations drop the malformed gate.
      diags.warning(std::string(err.what()) + "; gate dropped",
                    here(gate.line_number, gate.output_column));
      continue;
    }
    if (over_limits()) {
      limit_failure(gate.line_number);
      return nl;
    }
  }
  return nl;
}

Netlist parse_bench(std::string_view source) {
  diag::Diagnostics diags;
  return parse_bench(source, ParseOptions{}, diags);
}

std::string write_bench(const Netlist& nl) {
  std::string out = "# " + nl.name() + "\n";
  for (netlist::NetId id : nl.primary_inputs())
    out += "INPUT(" + nl.net(id).name + ")\n";
  for (netlist::NetId id : nl.primary_outputs())
    out += "OUTPUT(" + nl.net(id).name + ")\n";
  for (netlist::GateId g : nl.gates_in_file_order()) {
    const netlist::Gate& gate = nl.gate(g);
    out += nl.net(gate.output).name + " = ";
    out += gate_type_name(gate.type);
    out += '(';
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i > 0) out += ", ";
      out += nl.net(gate.inputs[i]).name;
    }
    out += ")\n";
  }
  return out;
}

void write_bench_file(const Netlist& nl, const std::string& path) {
  // Temp-file + rename: a crash mid-write never leaves a truncated .bench.
  io::write_file_atomic(path, write_bench(nl));
}

}  // namespace netrev::parser
