#include "common/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace srl::json {

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Value::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double Value::as_double(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::optional<std::uint64_t> Value::as_uint(std::uint64_t max) const {
  // 2^64: the first double past the range of std::uint64_t. Every double
  // below it that passes these checks converts exactly.
  constexpr double kTwoPow64 = 18446744073709551616.0;
  if (kind_ != Kind::kNumber || !(number_ >= 0.0) || number_ >= kTwoPow64 ||
      number_ != std::floor(number_)) {
    return std::nullopt;
  }
  const auto n = static_cast<std::uint64_t>(number_);
  if (n > max) return std::nullopt;
  return n;
}

const std::string& Value::as_string() const {
  static const std::string kEmpty;
  return kind_ == Kind::kString ? string_ : kEmpty;
}

void Value::push_back(Value v) {
  if (kind_ == Kind::kArray) array_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

const Value* Value::at(std::size_t i) const {
  if (kind_ != Kind::kArray || i >= array_.size()) return nullptr;
  return &array_[i];
}

void Value::set(const std::string& key, Value v) {
  if (kind_ != Kind::kObject) return;
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  static const std::vector<std::pair<std::string, Value>> kEmpty;
  return kind_ == Kind::kObject ? object_ : kEmpty;
}

std::string format_number(double d) {
  char buf[40];
  // Whole numbers below 2^53 in magnitude print as integers ("270", not
  // "2.7e+02"): each is exactly its integer, so the text round-trips, and
  // "-0" keeps the sign bit.
  if (std::abs(d) < 0x1p53 && d == std::trunc(d)) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  // Otherwise the shortest representation that round-trips: try increasing
  // precision and take the first that parses back to the same bits.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::string format_hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

namespace {

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through untouched
        }
    }
  }
  out += '"';
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      // Non-finite doubles have no JSON spelling and the strict parser
      // rejects "nan"/"inf"; degrade to null so dump() never emits a
      // document parse() refuses.
      out += std::isfinite(number_) ? format_number(number_) : "null";
      return;
    case Kind::kString:
      escape_string(string_, out);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_newline_indent(out, indent, depth + 1);
        escape_string(object_[i].first, out);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

namespace {

/// Strict recursive-descent parser over a string view of the document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_{text} {}

  std::optional<Value> run() {
    std::optional<Value> v = parse_value();
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool match_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  std::optional<Value> parse_value() {
    if (depth_ > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n': return match_literal("null") ? std::optional<Value>{Value::null()} : std::nullopt;
      case 't': return match_literal("true") ? std::optional<Value>{Value::boolean(true)} : std::nullopt;
      case 'f': return match_literal("false") ? std::optional<Value>{Value::boolean(false)} : std::nullopt;
      case '"': {
        std::optional<std::string> s = parse_string();
        if (!s.has_value()) return std::nullopt;
        return Value::string(std::move(*s));
      }
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    ++depth_;
    Value arr = Value::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      std::optional<Value> v = parse_value();
      if (!v.has_value()) return std::nullopt;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return std::nullopt;
    }
    --depth_;
    return arr;
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    ++depth_;
    Value obj = Value::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
      std::optional<std::string> key = parse_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      std::optional<Value> v = parse_value();
      if (!v.has_value()) return std::nullopt;
      obj.set(*key, std::move(*v));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return std::nullopt;
    }
    --depth_;
    return obj;
  }

  std::optional<std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
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
          std::optional<unsigned> cp = parse_hex4();
          if (!cp.has_value()) return std::nullopt;
          unsigned code = *cp;
          if (code >= 0xD800 && code <= 0xDBFF) {  // surrogate pair
            if (!(consume('\\') && consume('u'))) return std::nullopt;
            std::optional<unsigned> low = parse_hex4();
            if (!low.has_value() || *low < 0xDC00 || *low > 0xDFFF) {
              return std::nullopt;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (*low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return std::nullopt;  // unpaired low surrogate
          }
          append_utf8(out, code);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else return std::nullopt;
    }
    return value;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return std::nullopt;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
      if (pos_ == frac) return std::nullopt;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      const std::size_t exp = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) ++pos_;
      if (pos_ == exp) return std::nullopt;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(d)) return std::nullopt;
    return Value::number(d);
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_{0};
  int depth_{0};
};

}  // namespace

std::optional<Value> Value::parse(const std::string& text) {
  return Parser{text}.run();
}

bool Value::save(const std::string& path, int indent) const {
  std::ofstream out{path};
  if (!out) return false;
  out << dump(indent);
  return static_cast<bool>(out);
}

std::optional<Value> Value::load(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool append_ndjson(const std::string& path, const Value& v) {
  std::ofstream out{path, std::ios::app};
  if (!out) return false;
  out << v.dump(0) << '\n';
  return static_cast<bool>(out);
}

std::optional<std::vector<Value>> load_ndjson(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::vector<Value> docs;
  std::string line;
  while (std::getline(in, line)) {
    bool blank = true;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    std::optional<Value> v = Value::parse(line);
    if (!v.has_value()) return std::nullopt;
    docs.push_back(std::move(*v));
  }
  return docs;
}

}  // namespace srl::json
