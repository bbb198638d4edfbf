#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>

#include "core/error.hpp"

namespace cryo::serve {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& detail) {
  throw core::FlowError("json-parse", "",
                        detail + " at byte " + std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != in_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= in_.size()) fail(pos_, "unexpected end of input");
    return in_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(pos_, std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (in_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail(pos_, "bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail(pos_, "bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  // Entered by every array and object; the guard's destructor leaves.
  struct Nesting {
    explicit Nesting(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxJsonDepth)
        fail(parser.pos_, "nesting deeper than " +
                              std::to_string(kMaxJsonDepth) + " levels");
    }
    ~Nesting() { --parser.depth_; }
    Parser& parser;
  };

  JsonValue parse_object() {
    const Nesting nesting(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    const Nesting nesting(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > in_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = in_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail(pos_, "bad \\u escape digit");
          }
          pos_ += 4;
          // UTF-8 encode the code point (BMP only; surrogate pairs are
          // not expected in our schemas and decode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail(pos_ - 1, "bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            in_[pos_] == '+' || in_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail(pos_, "expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = std::string(in_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size())
      fail(start, "malformed number '" + v.text + "'");
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at pos_
};

// Parses `text` whole as an integer of type T; false on any other text
// (a fraction, an exponent, a sign T cannot hold, overflow).
template <typename T>
bool whole_number(const std::string& text, T& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc() && end == last;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::as_number(std::string_view what) const {
  if (kind != Kind::kNumber)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected a number");
  return number;
}

std::uint64_t JsonValue::as_uint(std::string_view what) const {
  std::uint64_t v = 0;
  if (kind != Kind::kNumber || !whole_number(text, v))
    throw core::FlowError(
        "json-parse", "",
        std::string(what) + ": expected a non-negative integer");
  return v;
}

std::int64_t JsonValue::as_int(std::string_view what, std::int64_t min,
                               std::int64_t max) const {
  std::int64_t v = 0;
  if (kind != Kind::kNumber || !whole_number(text, v) || v < min || v > max)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected an integer in [" +
                              std::to_string(min) + ", " +
                              std::to_string(max) + "]");
  return v;
}

bool JsonValue::as_bool(std::string_view what) const {
  if (kind != Kind::kBool)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected a bool");
  return boolean;
}

const std::string& JsonValue::as_string(std::string_view what) const {
  if (kind != Kind::kString)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected a string");
  return text;
}

const std::vector<JsonValue>& JsonValue::as_array(
    std::string_view what) const {
  if (kind != Kind::kArray)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected an array");
  return items;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object(
    std::string_view what) const {
  if (kind != Kind::kObject)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": expected an object");
  return members;
}

const JsonValue& JsonValue::at(std::string_view key,
                               std::string_view what) const {
  const JsonValue* v = find(key);
  if (!v)
    throw core::FlowError("json-parse", "",
                          std::string(what) + ": missing required field '" +
                              std::string(key) + "'");
  return *v;
}

JsonValue json_parse(std::string_view input) {
  return Parser(input).parse_document();
}

}  // namespace cryo::serve
