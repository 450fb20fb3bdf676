#include "harness/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace csaw::bench {
namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("json parse error at offset " +
                           std::to_string(offset) + ": " + what);
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail(pos, "unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(pos, std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  /// The four hex digits of a \u escape, starting at pos.
  std::uint32_t parse_hex4() {
    const char* begin = text.data() + pos;
    const char* end = text.data() + std::min(pos + 4, text.size());
    std::uint32_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
    if (ec != std::errc() || ptr != begin + 4) {
      fail(pos, "malformed \\u escape");
    }
    pos += 4;
    return value;
  }

  /// The code point of a \u escape whose 'u' was just consumed; a high
  /// surrogate must be followed by a \u-escaped low surrogate (what
  /// ensure_ascii writers emit for characters beyond the BMP).
  std::uint32_t parse_code_point() {
    const std::size_t at = pos - 2;
    const std::uint32_t unit = parse_hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail(at, "unpaired low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (text.substr(pos, 2) != "\\u") fail(at, "unpaired high surrogate");
    pos += 2;
    const std::uint32_t low = parse_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail(at, "unpaired high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail(pos, "unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) fail(pos, "unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': append_utf8(out, parse_code_point()); break;
          default:
            fail(pos - 1, "unsupported escape sequence");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json();
    return parse_number();
  }

  Json parse_number() {
    const std::size_t begin = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == begin) fail(pos, "expected a value");
    const std::string token(text.substr(begin, pos - begin));
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      // stod stops at the first invalid character; a partial parse
      // ("1.2.3", "1-2") is corruption, not a number.
      if (consumed != token.size()) {
        fail(begin, "malformed number '" + token + "'");
      }
      return Json(value);
    } catch (const std::exception&) {
      fail(begin, "malformed number '" + token + "'");
    }
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return out;
    }
    for (;;) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == ']') return out;
      if (c != ',') fail(pos - 1, "expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == '}') return out;
      if (c != ',') fail(pos - 1, "expected ',' or '}'");
    }
  }
};

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double v) {
  // Counts (instances, edges, thread widths) print as integers; measured
  // quantities keep full double round-trip precision.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw std::runtime_error("missing json field '" + std::string(key) + "'");
  }
  return *found;
}

Json& Json::push_back(Json value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
  return array_.back();
}

Json& Json::set(std::string key, Json value) {
  type_ = Type::kObject;
  object_.emplace_back(std::move(key), std::move(value));
  return object_.back().second;
}

void Json::dump_to(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, number_); break;
    case Type::kString: dump_string(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += inner_pad;
        array_[i].dump_to(out, indent + 1);
        if (i + 1 < array_.size()) out += ",";
        out += "\n";
      }
      out += pad + "]";
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += inner_pad;
        dump_string(out, object_[i].first);
        out += ": ";
        object_[i].second.dump_to(out, indent + 1);
        if (i + 1 < object_.size()) out += ",";
        out += "\n";
      }
      out += pad + "}";
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += "\n";
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser{text};
  Json value = parser.parse_value();
  parser.skip_ws();
  if (parser.pos != text.size()) fail(parser.pos, "trailing content");
  return value;
}

}  // namespace csaw::bench
