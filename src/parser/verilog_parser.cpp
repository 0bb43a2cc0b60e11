#include "parser/verilog_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <deque>
#include <optional>

#include "exec/chaos.h"
#include "parser/lexer.h"

namespace netrev::parser {

namespace {

using netlist::GateType;
using netlist::Netlist;

// Pin names conventionally used for cell outputs.
bool is_output_pin(std::string_view pin) {
  return pin == "Y" || pin == "Q" || pin == "Z" || pin == "O" || pin == "OUT";
}

// Pin names for clock/reset-style connections we deliberately ignore: the
// netlist model treats clocking as implicit (DESIGN.md §6).
bool is_ignored_pin(std::string_view pin) {
  return pin == "CK" || pin == "CLK" || pin == "CLOCK" || pin == "RST" ||
         pin == "RESET" || pin == "SET" || pin == "EN";
}

// Maps a cell identifier like "NAND3_X2", "nand", "INV" to a gate type.
std::optional<GateType> cell_to_gate_type(std::string_view cell) {
  std::string upper(cell);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  // Strip a drive-strength suffix (_X1, X2, ...).
  const auto strip_suffix = [&](std::string& s) {
    const std::size_t x = s.rfind('X');
    if (x != std::string::npos && x + 1 < s.size() &&
        std::all_of(s.begin() + static_cast<std::ptrdiff_t>(x) + 1, s.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      s.erase(x);
      if (!s.empty() && s.back() == '_') s.pop_back();
    }
  };
  strip_suffix(upper);
  // Strip a trailing arity count (NAND3 -> NAND).
  while (!upper.empty() && std::isdigit(static_cast<unsigned char>(upper.back())))
    upper.pop_back();
  if (upper == "FD" || upper == "DFF" || upper == "SDFF" || upper == "FLOP")
    return GateType::kDff;
  return netlist::gate_type_from_name(upper);
}

// One parsed gate statement.  Names are views of the source (or of the
// parser's normalized names); the inputs are a slice of the parser's shared
// input array.
struct PendingGate {
  GateType type = GateType::kBuf;
  std::string_view output;
  std::uint32_t first_input = 0;
  std::uint32_t input_count = 0;
  std::uint32_t line = 0;
  std::uint32_t column = 1;
};

class VerilogParser {
 public:
  VerilogParser(std::string_view source, const ParseOptions& options,
                diag::Diagnostics& diags)
      : options_(options),
        diags_(diags),
        tokens_(tokenize(source, LexOptions{options.permissive, &diags,
                                            options.filename})) {}

  Netlist parse() {
    std::string module_name = parse_header();

    while (!at_keyword("endmodule")) {
      options_.checkpoint.poll();
      const Token& tok = peek();
      if (tok.kind == TokenKind::kEndOfFile) {
        if (!permissive())
          throw ParseError("missing 'endmodule'", tok.line, tok.column);
        diags_.error("missing 'endmodule'", here(tok));
        break;
      }
      if (permissive() && diags_.at_error_limit()) {
        diags_.note("too many errors; giving up on the rest of the input",
                    here(tok));
        break;
      }
      const std::size_t inputs_before = gate_inputs_.size();
      try {
        parse_statement();
      } catch (const ParseError& err) {
        gate_inputs_.resize(inputs_before);  // the statement's partial inputs
        if (!permissive()) throw;
        diags_.error(err.message() + "; statement skipped",
                     {options_.filename, err.line(), err.column()});
        synchronize();
      }
    }
    if (at_keyword("endmodule")) expect_keyword("endmodule");

    return build(module_name);
  }

 private:
  bool permissive() const { return options_.permissive; }

  diag::SourceLocation here(const Token& tok) const {
    return {options_.filename, tok.line, tok.column};
  }

  // --- token stream helpers -----------------------------------------------

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t index = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }

  const Token& take() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  void expect(TokenKind kind) {
    const Token& tok = take();
    if (tok.kind != kind)
      throw ParseError("expected " + std::string(token_kind_name(kind)) +
                           ", got " + std::string(token_kind_name(tok.kind)),
                       tok.line, tok.column);
  }

  bool at_keyword(std::string_view keyword) const {
    const Token& tok = peek();
    return tok.kind == TokenKind::kIdentifier && tok.text == keyword;
  }

  void expect_keyword(std::string_view keyword) {
    const Token& tok = take();
    if (tok.kind != TokenKind::kIdentifier || tok.text != keyword)
      throw ParseError("expected '" + std::string(keyword) + "'", tok.line,
                       tok.column);
  }

  std::string_view expect_identifier() {
    const Token& tok = take();
    if (tok.kind != TokenKind::kIdentifier)
      throw ParseError("expected identifier, got " +
                           std::string(token_kind_name(tok.kind)),
                       tok.line, tok.column);
    return tok.text;
  }

  // Identifier with optional [index] suffix, normalized to "name[index]"
  // (kept in normalized_names_; a plain identifier stays a source view).
  std::string_view expect_net_name() {
    const std::string_view name = expect_identifier();
    if (peek().kind != TokenKind::kLBracket) return name;
    take();
    const Token& index = take();
    if (index.kind != TokenKind::kNumber)
      throw ParseError("expected bit index", index.line, index.column);
    expect(TokenKind::kRBracket);
    return normalized_names_.emplace_back(std::string(name) + '[' +
                                          std::string(index.text) + ']');
  }

  // Error recovery: skip to just past the next ';' (or stop at 'endmodule' /
  // end of file) so the next statement starts on a clean boundary.  Always
  // consumes at least one token unless already at end of file.
  void synchronize() {
    while (true) {
      const Token& tok = peek();
      if (tok.kind == TokenKind::kEndOfFile) return;
      if (at_keyword("endmodule")) return;
      if (tok.kind == TokenKind::kSemicolon) {
        take();
        return;
      }
      take();
    }
  }

  // --- grammar ---------------------------------------------------------

  std::string parse_header() {
    try {
      expect_keyword("module");
      const std::string module_name(expect_identifier());
      parse_port_header();
      expect(TokenKind::kSemicolon);
      return module_name;
    } catch (const ParseError& err) {
      if (!permissive()) throw;
      diags_.error(err.message() + "; module header skipped",
                   {options_.filename, err.line(), err.column()});
      synchronize();
      return "recovered";
    }
  }

  void parse_statement() {
    const Token& tok = peek();
    if (at_keyword("input")) {
      parse_declaration(inputs_);
    } else if (at_keyword("output")) {
      parse_declaration(outputs_);
    } else if (at_keyword("wire")) {
      parse_declaration(wires_);
    } else if (at_keyword("assign")) {
      parse_assign();
    } else if (tok.kind == TokenKind::kIdentifier) {
      parse_instance();
    } else {
      throw ParseError("expected statement, got " +
                           std::string(token_kind_name(tok.kind)),
                       tok.line, tok.column);
    }
  }

  void parse_port_header() {
    expect(TokenKind::kLParen);
    if (peek().kind != TokenKind::kRParen) {
      while (true) {
        expect_net_name();  // header order is not semantically relevant
        if (peek().kind != TokenKind::kComma) break;
        take();
      }
    }
    expect(TokenKind::kRParen);
  }

  void parse_declaration(std::vector<std::string_view>& into) {
    take();  // keyword
    while (true) {
      into.push_back(expect_net_name());
      if (peek().kind != TokenKind::kComma) break;
      take();
    }
    expect(TokenKind::kSemicolon);
  }

  void parse_assign() {
    const Token& keyword = take();  // 'assign'
    PendingGate gate;
    gate.line = keyword.line;
    gate.column = keyword.column;
    gate.first_input = static_cast<std::uint32_t>(gate_inputs_.size());
    gate.output = expect_net_name();
    expect(TokenKind::kEquals);
    const Token& rhs = peek();
    if (rhs.kind == TokenKind::kBitLiteral) {
      take();
      if (rhs.text.size() != 1 || (rhs.text[0] != '0' && rhs.text[0] != '1'))
        throw ParseError("only single-bit constants supported", rhs.line,
                         rhs.column);
      gate.type = rhs.text[0] == '0' ? GateType::kConst0 : GateType::kConst1;
    } else {
      gate.type = GateType::kBuf;
      gate_inputs_.push_back(expect_net_name());
    }
    expect(TokenKind::kSemicolon);
    gate.input_count =
        static_cast<std::uint32_t>(gate_inputs_.size() - gate.first_input);
    gates_.push_back(gate);
  }

  void parse_instance() {
    const Token& cell_tok = take();
    const auto type = cell_to_gate_type(cell_tok.text);
    if (!type)
      throw ParseError("unknown cell type '" + std::string(cell_tok.text) + "'",
                       cell_tok.line, cell_tok.column);

    // Optional instance name (primitives may omit it).
    if (peek().kind == TokenKind::kIdentifier) take();

    PendingGate gate;
    gate.type = *type;
    gate.line = cell_tok.line;
    gate.column = cell_tok.column;
    gate.first_input = static_cast<std::uint32_t>(gate_inputs_.size());

    expect(TokenKind::kLParen);
    if (peek().kind == TokenKind::kDot) {
      parse_named_connections(gate);
    } else {
      parse_positional_connections(gate);
    }
    expect(TokenKind::kRParen);
    expect(TokenKind::kSemicolon);

    if (gate.output.empty())
      throw ParseError("instance has no output connection", cell_tok.line,
                       cell_tok.column);
    gate.input_count =
        static_cast<std::uint32_t>(gate_inputs_.size() - gate.first_input);
    gates_.push_back(gate);
  }

  void parse_positional_connections(PendingGate& gate) {
    // Verilog primitive convention: output first, then inputs.
    gate.output = expect_net_name();
    while (peek().kind == TokenKind::kComma) {
      take();
      gate_inputs_.push_back(expect_net_name());
    }
  }

  void parse_named_connections(PendingGate& gate) {
    // Collect (pin, net); sort input pins by name so A,B,C order is stable
    // regardless of the order connections appear in the file.
    std::vector<std::pair<std::string_view, std::string_view>> input_pins;
    while (true) {
      expect(TokenKind::kDot);
      const std::string_view pin = expect_identifier();
      expect(TokenKind::kLParen);
      const std::string_view net = expect_net_name();
      expect(TokenKind::kRParen);
      if (is_output_pin(pin)) {
        gate.output = net;
      } else if (!is_ignored_pin(pin)) {
        input_pins.emplace_back(pin, net);
      }
      if (peek().kind != TokenKind::kComma) break;
      take();
    }
    std::sort(input_pins.begin(), input_pins.end());
    for (const auto& [pin, net] : input_pins) gate_inputs_.push_back(net);
  }

  // --- netlist construction ----------------------------------------------

  Netlist build(const std::string& module_name) {
    Netlist nl(module_name);
    const auto ensure = [&](std::string_view name) {
      return nl.find_or_add_net(name);
    };
    // Declared nets, or one per input and gate output when the file leaves
    // its wires implicit.
    const std::size_t nets =
        std::max(inputs_.size() + outputs_.size() + wires_.size(),
                 inputs_.size() + gates_.size());
    nl.reserve(std::min(nets, options_.limits.max_nets + 1),
               std::min(gates_.size(), options_.limits.max_gates + 1));

    // Declare in a deterministic order: inputs, outputs, wires, then
    // implicitly-declared nets as they appear in gates.  Every primary input
    // is marked here, before any gate, so a net is a declared input exactly
    // when it is marked as one.
    for (std::string_view name : inputs_) nl.mark_primary_input(ensure(name));
    for (std::string_view name : outputs_) nl.mark_primary_output(ensure(name));
    for (std::string_view name : wires_) ensure(name);
    const auto declared_input = [&](std::string_view name) {
      const auto id = nl.find_net(name);
      return id && nl.net(*id).is_primary_input;
    };

    const auto over_limits = [&] {
      return nl.net_count() > options_.limits.max_nets ||
             nl.gate_count() > options_.limits.max_gates;
    };
    std::vector<netlist::NetId> ins;
    for (const PendingGate& gate : gates_) {
      if (declared_input(gate.output)) {
        const std::string message =
            "gate drives primary input '" + std::string(gate.output) + "'";
        if (!permissive()) throw ParseError(message, gate.line, gate.column);
        diags_.warning(message + "; gate dropped",
                       {options_.filename, gate.line, gate.column});
        continue;
      }
      const auto out = ensure(gate.output);
      ins.clear();
      for (std::uint32_t k = 0; k < gate.input_count; ++k)
        ins.push_back(ensure(gate_inputs_[gate.first_input + k]));
      try {
        nl.add_gate(gate.type, out, ins);
      } catch (const std::invalid_argument& err) {
        if (!permissive())
          throw ParseError(err.what(), gate.line, gate.column);
        // Keep-first duplicate-driver resolution; arity violations drop the
        // malformed gate.
        diags_.warning(std::string(err.what()) + "; gate dropped",
                       {options_.filename, gate.line, gate.column});
        continue;
      }
      if (over_limits()) {
        const std::string message = "netlist exceeds resource limits (" +
                                    std::to_string(nl.net_count()) + " nets, " +
                                    std::to_string(nl.gate_count()) +
                                    " gates)";
        if (!permissive()) throw ResourceLimitError(message);
        diags_.fatal(message, {options_.filename, gate.line, gate.column});
        break;
      }
    }
    return nl;
  }

  const ParseOptions& options_;
  diag::Diagnostics& diags_;
  std::vector<Token> tokens_;  // views of the source
  std::size_t pos_ = 0;
  std::vector<std::string_view> inputs_;
  std::vector<std::string_view> outputs_;
  std::vector<std::string_view> wires_;
  std::vector<PendingGate> gates_;
  std::vector<std::string_view> gate_inputs_;  // PendingGate input slices
  // "name[index]" net names; a deque, so the views handed out stay valid
  // as it grows.
  std::deque<std::string> normalized_names_;
};

}  // namespace

netlist::Netlist parse_verilog(std::string_view source,
                               const ParseOptions& options,
                               diag::Diagnostics& diags) {
  exec::chaos_point("parse");
  if (source.size() > options.limits.max_file_bytes) {
    const std::string message =
        "input exceeds maximum file size (" + std::to_string(source.size()) +
        " > " + std::to_string(options.limits.max_file_bytes) + " bytes)";
    if (!options.permissive) throw ResourceLimitError(message);
    diags.fatal(message, {options.filename, 0, 0});
    return Netlist("recovered");
  }
  return VerilogParser(source, options, diags).parse();
}

netlist::Netlist parse_verilog(std::string_view source) {
  diag::Diagnostics diags;
  return parse_verilog(source, ParseOptions{}, diags);
}

}  // namespace netrev::parser
