#include "parser/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netrev::parser {
namespace {

std::vector<TokenKind> kinds(const std::vector<Token>& tokens) {
  std::vector<TokenKind> out;
  for (const Token& t : tokens) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEof) {
  const auto tokens = tokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEndOfFile);
}

TEST(Lexer, TokenizesInstanceLine) {
  const auto tokens = tokenize("NAND2_X1 U1 (y, a, b);");
  const std::vector<TokenKind> expected = {
      TokenKind::kIdentifier, TokenKind::kIdentifier, TokenKind::kLParen,
      TokenKind::kIdentifier, TokenKind::kComma,      TokenKind::kIdentifier,
      TokenKind::kComma,      TokenKind::kIdentifier, TokenKind::kRParen,
      TokenKind::kSemicolon,  TokenKind::kEndOfFile};
  EXPECT_EQ(kinds(tokens), expected);
  EXPECT_EQ(tokens[0].text, "NAND2_X1");
  EXPECT_EQ(tokens[3].text, "y");
}

TEST(Lexer, SkipsLineComments) {
  const auto tokens = tokenize("a // comment to end\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, SkipsBlockComments) {
  const auto tokens = tokenize("a /* multi\nline */ b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, RejectsUnterminatedBlockComment) {
  EXPECT_THROW(tokenize("a /* never ends"), ParseError);
}

TEST(Lexer, TracksLineAndColumn) {
  const auto tokens = tokenize("a\n  b");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[0].column, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[1].column, 3u);
}

TEST(Lexer, EscapedIdentifiers) {
  const auto tokens = tokenize("\\weird[0].name rest");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "weird[0].name");
  EXPECT_EQ(tokens[1].text, "rest");
}

TEST(Lexer, RejectsEmptyEscapedIdentifier) {
  EXPECT_THROW(tokenize("\\ x"), ParseError);
}

TEST(Lexer, Numbers) {
  const auto tokens = tokenize("123");
  EXPECT_EQ(tokens[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens[0].text, "123");
}

TEST(Lexer, BitLiterals) {
  const auto tokens = tokenize("1'b0 1'b1");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kBitLiteral);
  EXPECT_EQ(tokens[0].text, "0");
  EXPECT_EQ(tokens[1].kind, TokenKind::kBitLiteral);
  EXPECT_EQ(tokens[1].text, "1");
}

TEST(Lexer, RejectsNonBinaryLiteralBase) {
  EXPECT_THROW(tokenize("8'hFF"), ParseError);
}

TEST(Lexer, BracketsAndDots) {
  const auto tokens = tokenize(".A(bus[3])");
  const std::vector<TokenKind> expected = {
      TokenKind::kDot,      TokenKind::kIdentifier, TokenKind::kLParen,
      TokenKind::kIdentifier, TokenKind::kLBracket, TokenKind::kNumber,
      TokenKind::kRBracket, TokenKind::kRParen,     TokenKind::kEndOfFile};
  EXPECT_EQ(kinds(tokens), expected);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(tokenize("a @ b"), ParseError);
}

TEST(Lexer, ParseErrorCarriesLocation) {
  try {
    tokenize("ab\ncd @");
    FAIL();
  } catch (const ParseError& err) {
    EXPECT_EQ(err.line(), 2u);
    EXPECT_EQ(err.column(), 4u);
  }
}

// A multi-line module touching every token kind, comments of both styles,
// tabs, CRLF and an escaped identifier.
constexpr std::string_view kMultiLine =
    "module m (a, \\b[0] );\r\n"
    "  // line comment\n"
    "\tinput a; /* block\n comment */ wire w;\n"
    "  assign w = 1'b0; NAND2_X1 U7 (.Y(w), .A(a));\n"
    "  and g (x[12], a) : endmodule";

TEST(Lexer, TokensViewTheSourceBuffer) {
  const std::string source(kMultiLine);
  const std::vector<Token> tokens = tokenize(source);
  ASSERT_GT(tokens.size(), 30u);
  const char* begin = source.data();
  const char* end = source.data() + source.size();
  for (const Token& tok : tokens) {
    EXPECT_GE(tok.text.data(), begin) << tok.text;
    EXPECT_LE(tok.text.data() + tok.text.size(), end) << tok.text;
  }
  EXPECT_EQ(tokens.back().kind, TokenKind::kEndOfFile);
  EXPECT_EQ(tokens.back().text.data(), end);
  EXPECT_TRUE(tokens.back().text.empty());
}

TEST(Lexer, MultiLinePositionsAndTexts) {
  const std::vector<Token> tokens = tokenize(kMultiLine);
  struct Expected {
    std::string_view text;
    std::uint32_t line;
    std::uint32_t column;
  };
  const std::vector<Expected> expected = {
      {"module", 1, 1},  {"m", 1, 8},      {"(", 1, 10},    {"a", 1, 11},
      {",", 1, 12},      {"b[0]", 1, 14},  {")", 1, 20},    {";", 1, 21},
      {"input", 3, 2},   {"a", 3, 8},      {";", 3, 9},     {"wire", 4, 13},
      {"w", 4, 18},      {";", 4, 19},     {"assign", 5, 3}, {"w", 5, 10},
      {"=", 5, 12},      {"0", 5, 14},     {";", 5, 18},    {"NAND2_X1", 5, 20},
      {"U7", 5, 29},     {"(", 5, 32},     {".", 5, 33},    {"Y", 5, 34},
      {"(", 5, 35},      {"w", 5, 36},     {")", 5, 37},    {",", 5, 38},
      {".", 5, 40},      {"A", 5, 41},     {"(", 5, 42},    {"a", 5, 43},
      {")", 5, 44},      {")", 5, 45},     {";", 5, 46},    {"and", 6, 3},
      {"g", 6, 7},       {"(", 6, 9},      {"x", 6, 10},    {"[", 6, 11},
      {"12", 6, 12},     {"]", 6, 14},     {",", 6, 15},    {"a", 6, 17},
      {")", 6, 18},      {":", 6, 20},     {"endmodule", 6, 22},
      {"", 6, 31},
  };
  ASSERT_EQ(tokens.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(tokens[i].text, expected[i].text) << "token " << i;
    EXPECT_EQ(tokens[i].line, expected[i].line) << "token " << i;
    EXPECT_EQ(tokens[i].column, expected[i].column) << "token " << i;
  }
  EXPECT_EQ(tokens[17].kind, TokenKind::kBitLiteral);
  EXPECT_EQ(tokens[40].kind, TokenKind::kNumber);
}

TEST(Lexer, KindNamesAreHuman) {
  EXPECT_EQ(token_kind_name(TokenKind::kIdentifier), "identifier");
  EXPECT_EQ(token_kind_name(TokenKind::kSemicolon), "';'");
}

}  // namespace
}  // namespace netrev::parser
