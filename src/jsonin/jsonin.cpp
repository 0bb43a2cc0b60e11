#include "jsonin/jsonin.h"

#include <cctype>

namespace netrev::jsonin {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  // Parses the whole line as one value; returns false with `error_` set on
  // malformed input or trailing garbage.
  bool parse(Value& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& message) {
    if (error_.empty())
      error_ = message + " at offset " + std::to_string(pos_);
    return false;
  }

  static constexpr int kMaxDepth = 256;

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool parse_value(Value& out) {
    out.begin = pos_;
    bool ok = false;
    switch (peek()) {
      // The parser is recursive-descent, so nesting depth is stack depth:
      // without a bound, a hostile frame of brackets — well within any
      // byte limit — would overflow the stack and kill the process.
      case '{':
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        ok = parse_object(out);
        --depth_;
        break;
      case '[':
        if (++depth_ > kMaxDepth) return fail("nesting too deep");
        ok = parse_array(out);
        --depth_;
        break;
      case '"':
        out.kind = Value::Kind::kString;
        ok = parse_string(out.string);
        break;
      case 't':
      case 'f':
        out.kind = Value::Kind::kBool;
        ok = parse_bool(out.boolean);
        break;
      case 'n':
        out.kind = Value::Kind::kNull;
        ok = parse_null();
        break;
      default:
        ok = parse_number(out);
        break;
    }
    out.end = pos_;
    return ok;
  }

  bool parse_object(Value& out) {
    out.kind = Value::Kind::kObject;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    out.kind = Value::Kind::kArray;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      Value value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_bool(bool& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out = false;
      return true;
    }
    return fail("expected boolean");
  }

  bool parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) return fail("expected null");
    pos_ += 4;
    return true;
  }

  bool parse_number(Value& out) {
    out.kind = Value::Kind::kNumber;
    const bool negative = consume('-');
    if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
      return fail("expected a number");
    out.integral = !negative;
    out.number = 0;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
      const std::uint64_t digit = static_cast<std::uint64_t>(peek() - '0');
      if (out.number > (UINT64_MAX - digit) / 10)
        out.integral = false;  // carried raw via the span, never interpreted
      else
        out.number = out.number * 10 + digit;
      ++pos_;
    }
    if (consume('.')) {
      out.integral = false;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return fail("expected digits after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      out.integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0)
        return fail("expected digits in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return true;
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit =
                hex_digit(text_[pos_ + static_cast<std::size_t>(i)]);
            if (digit < 0) return fail("bad \\u escape");
            code = code * 16 + digit;
          }
          pos_ += 4;
          // The emitters only \u-escape control bytes; reject anything that
          // does not fit one byte instead of mis-encoding it.
          if (code > 0xff) return fail("unsupported \\u code point");
          out += static_cast<char>(code);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool parse(const std::string& text, Value& value, std::string& error) {
  Parser parser(text);
  if (parser.parse(value)) return true;
  error = parser.error();
  return false;
}

}  // namespace netrev::jsonin
