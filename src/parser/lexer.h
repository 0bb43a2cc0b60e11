// Tokenizer for the structural-Verilog subset used by gate-level netlists.
//
// Handles identifiers (including escaped \names and bus-bit suffixes like
// reg[3]), integer literals, Verilog bit literals (1'b0), punctuation, and
// both comment styles.  Token positions are tracked for error messages.
//
// Tokens are views: each Token::text points into the source buffer passed to
// tokenize(), so the tokens are valid only while that buffer lives and is
// unchanged.  Nothing is copied per token.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.h"

namespace netrev::parser {

// Raised on any lexical or syntactic error; carries line/column.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line, std::size_t column)
      : std::runtime_error(message + " at line " + std::to_string(line) +
                           ", column " + std::to_string(column)),
        message_(message),
        line_(line),
        column_(column) {}

  // The bare message, without the " at line L, column C" suffix of what().
  const std::string& message() const { return message_; }
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::string message_;
  std::size_t line_;
  std::size_t column_;
};

enum class TokenKind {
  kIdentifier,
  kNumber,      // plain integer
  kBitLiteral,  // 1'b0 / 1'b1, value in text
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kSemicolon,
  kEquals,
  kDot,
  kColon,
  kEndOfFile,
};

// `text` views the source: an identifier without its escape backslash, a
// number's digits, a bit literal's bits (after the 'b), a punctuation
// character, or the empty view at the end of the source for end of file.
// Line and column are 1-based; 32 bits cover any input under the parsers'
// file-size ceiling (ResourceLimits::max_file_bytes).
struct Token {
  std::string_view text;
  std::uint32_t line = 0;
  std::uint32_t column = 0;
  TokenKind kind = TokenKind::kEndOfFile;
};

struct LexOptions {
  // Strict (default): throw ParseError on the first bad character.
  // Permissive: report a diagnostic into `diags`, skip the offending text,
  // and keep scanning.  `diags` must be non-null when permissive.
  bool permissive = false;
  diag::Diagnostics* diags = nullptr;
  std::string file;  // recorded in diagnostic locations
};

// Tokenizes the whole input eagerly.  Throws ParseError on bad characters.
// The returned tokens view `source` (see Token).
std::vector<Token> tokenize(std::string_view source);
std::vector<Token> tokenize(std::string_view source,
                            const LexOptions& options);

std::string_view token_kind_name(TokenKind kind);

}  // namespace netrev::parser
