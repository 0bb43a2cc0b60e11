#include "parser/lexer.h"

#include <cctype>

#include "common/contracts.h"

namespace netrev::parser {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '\\';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

}  // namespace

std::string_view token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kBitLiteral: return "bit literal";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kEquals: return "'='";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kEndOfFile: return "end of file";
  }
  return "?";
}

std::vector<Token> tokenize(std::string_view source) {
  return tokenize(source, LexOptions{});
}

std::vector<Token> tokenize(std::string_view source,
                            const LexOptions& options) {
  NETREV_REQUIRE(!options.permissive || options.diags != nullptr);
  std::vector<Token> tokens;
  std::size_t line = 1;
  std::size_t column = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  // Throws in strict mode; records a diagnostic in permissive mode, after
  // which the call site skips the offending text and keeps scanning.
  const auto fail = [&](const std::string& message, std::size_t at_line,
                        std::size_t at_column) {
    if (!options.permissive) throw ParseError(message, at_line, at_column);
    options.diags->error(message, {options.file, at_line, at_column});
  };

  const auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };

  // Where the token being scanned starts.
  std::size_t token_line = line;
  std::size_t token_column = column;
  const auto push = [&](TokenKind kind, std::string_view text) {
    tokens.push_back(Token{text, static_cast<std::uint32_t>(token_line),
                           static_cast<std::uint32_t>(token_column), kind});
  };
  // Consumes source[i, end), which holds no newline, as one view.
  const auto slice = [&](std::size_t end) {
    const std::string_view text = source.substr(i, end - i);
    column += end - i;
    i = end;
    return text;
  };
  // The end of the run of characters from `from` that satisfy `keep`.
  const auto scan = [&](std::size_t from, auto&& keep) {
    while (from < n && keep(source[from])) ++from;
    return from;
  };

  while (i < n) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') advance(1);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const std::size_t start_line = line, start_col = column;
      advance(2);
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/'))
        advance(1);
      if (i + 1 >= n) {
        fail("unterminated block comment", start_line, start_col);
        while (i < n) advance(1);  // comment swallows the rest of the input
        break;
      }
      advance(2);
      continue;
    }

    token_line = line;
    token_column = column;

    switch (c) {
      case '(': push(TokenKind::kLParen, slice(i + 1)); continue;
      case ')': push(TokenKind::kRParen, slice(i + 1)); continue;
      case '[': push(TokenKind::kLBracket, slice(i + 1)); continue;
      case ']': push(TokenKind::kRBracket, slice(i + 1)); continue;
      case ',': push(TokenKind::kComma, slice(i + 1)); continue;
      case ';': push(TokenKind::kSemicolon, slice(i + 1)); continue;
      case '=': push(TokenKind::kEquals, slice(i + 1)); continue;
      case '.': push(TokenKind::kDot, slice(i + 1)); continue;
      case ':': push(TokenKind::kColon, slice(i + 1)); continue;
      default: break;
    }

    if (c == '\\') {
      // Escaped identifier: everything up to the next whitespace.
      advance(1);
      const std::string_view name = slice(scan(i, [](char ch) {
        return std::isspace(static_cast<unsigned char>(ch)) == 0;
      }));
      if (name.empty()) {
        fail("empty escaped identifier", token_line, token_column);
        continue;
      }
      push(TokenKind::kIdentifier, name);
      continue;
    }

    if (is_ident_start(c)) {
      push(TokenKind::kIdentifier, slice(scan(i, is_ident_char)));
      continue;
    }

    if (is_digit(c)) {
      const std::string_view digits = slice(scan(i, is_digit));
      // Bit literal: <width>'b<value>
      if (i < n && source[i] == '\'') {
        advance(1);
        if (i >= n || (source[i] != 'b' && source[i] != 'B')) {
          fail("only binary bit literals are supported", token_line,
               token_column);
          continue;  // the digits and quote are consumed; rescan from here
        }
        advance(1);
        const std::string_view bits =
            slice(scan(i, [](char ch) { return ch == '0' || ch == '1'; }));
        if (bits.empty()) {
          fail("empty bit literal", token_line, token_column);
          continue;
        }
        push(TokenKind::kBitLiteral, bits);
        continue;
      }
      push(TokenKind::kNumber, digits);
      continue;
    }

    fail(std::string("unexpected character '") + c + "'", line, column);
    advance(1);
  }

  tokens.push_back(Token{source.substr(n), static_cast<std::uint32_t>(line),
                         static_cast<std::uint32_t>(column),
                         TokenKind::kEndOfFile});
  return tokens;
}

}  // namespace netrev::parser
