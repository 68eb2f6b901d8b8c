#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace sketchsample {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  if (type_ != Type::kBool) throw std::logic_error("JSON value is not a bool");
  return bool_;
}

double JsonValue::AsNumber() const {
  if (type_ != Type::kNumber) {
    throw std::logic_error("JSON value is not a number");
  }
  return number_;
}

const std::string& JsonValue::AsString() const {
  if (type_ != Type::kString) {
    throw std::logic_error("JSON value is not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  if (type_ != Type::kArray) {
    throw std::logic_error("JSON value is not an array");
  }
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject()
    const {
  if (type_ != Type::kObject) {
    throw std::logic_error("JSON value is not an object");
  }
  return object_;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue value) {
  if (type_ != Type::kObject) {
    throw std::logic_error("Set() on a non-object JSON value");
  }
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

std::optional<double> JsonValue::GetNumber(const std::string& key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->AsNumber();
}

std::optional<std::string> JsonValue::GetString(const std::string& key) const {
  const JsonValue* v = Get(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->AsString();
}

void JsonValue::Append(JsonValue value) {
  if (type_ != Type::kArray) {
    throw std::logic_error("Append() on a non-array JSON value");
  }
  array_.push_back(std::move(value));
}

namespace {

// Appends `s` as a JSON string literal. Runs of bytes that need no escape
// are appended whole, so a plain key or value costs one append.
void EscapeString(std::string_view s, std::string& out) {
  out.push_back('"');
  size_t run = 0;  // first byte not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void FormatNumber(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; emit null so consumers notice the hole rather
    // than reading a bogus number.
    out += "null";
    return;
  }
  // Integers up to 2^53 print exactly, without a trailing ".0". The bytes
  // are printf's: an integral double below 2^53 converts exactly to
  // int64_t, whose decimal digits are "%.0f" of it (−0.0, which converts
  // to 0, keeps its sign by hand), and std::to_chars at general/17 is
  // specified as "%.17g" (tests/json_test.cc checks both against printf).
  char buf[32];
  std::to_chars_result result;
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char* first = buf;
    if (d == 0.0 && std::signbit(d)) *first++ = '-';
    result = std::to_chars(first, buf + sizeof(buf), static_cast<int64_t>(d));
  } else {
    result = std::to_chars(buf, buf + sizeof(buf), d,
                           std::chars_format::general, 17);
  }
  out.append(buf, result.ptr);
}

void Newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: FormatNumber(number_, out); break;
    case Type::kString: EscapeString(string_, out); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        Newline(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        Newline(out, indent, depth + 1);
        EscapeString(object_[i].first, out);
        out += indent > 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

JsonWriter& JsonWriter::BeginObject() {
  out_.push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (need_comma_) out_.push_back(',');
  EscapeString(key, out_);
  out_.push_back(':');
  return *this;
}

JsonWriter& JsonWriter::Number(double d) {
  FormatNumber(d, out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  EscapeString(s, out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool b) {
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Members(std::string_view members) {
  if (members.empty()) return *this;
  if (need_comma_) out_.push_back(',');
  out_.append(members);
  need_comma_ = true;
  return *this;
}

namespace {

/// Recursive-descent parser over a string view of the input.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Run() {
    SkipWhitespace();
    auto v = ParseValue(0);
    if (!v) return std::nullopt;
    SkipWhitespace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 200;

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n':
        return ConsumeLiteral("null") ? std::optional<JsonValue>(
                                            JsonValue::Null())
                                      : std::nullopt;
      case 't':
        return ConsumeLiteral("true") ? std::optional<JsonValue>(
                                            JsonValue::Bool(true))
                                      : std::nullopt;
      case 'f':
        return ConsumeLiteral("false") ? std::optional<JsonValue>(
                                             JsonValue::Bool(false))
                                       : std::nullopt;
      case '"': return ParseString();
      case '[': return ParseArray(depth);
      case '{': return ParseObject(depth);
      default: return ParseNumber();
    }
  }

  bool AtDigit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  // Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // strtod alone would also accept "+1", "01", "1.", ".5", hex, and inf/nan.
  std::optional<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    if (!AtDigit()) return std::nullopt;
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (AtDigit()) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!AtDigit()) return std::nullopt;
      while (AtDigit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) return std::nullopt;
      while (AtDigit()) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    // The grammar above already rejected everything strtod could choke on,
    // so the unchecked conversion is safe (huge magnitudes round to ±inf,
    // which the caller stores as an ordinary double).
    // NOLINTNEXTLINE(cert-err34-c)
    return JsonValue::Number(std::strtod(token.c_str(), nullptr));
  }

  std::optional<JsonValue> ParseString() {
    std::string s;
    if (!ParseRawString(s)) return std::nullopt;
    return JsonValue::String(std::move(s));
  }

  bool ParseRawString(std::string& out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // for bench metadata; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  std::optional<JsonValue> ParseArray(int depth) {
    if (!Consume('[')) return std::nullopt;
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      auto v = ParseValue(depth + 1);
      if (!v) return std::nullopt;
      arr.Append(std::move(*v));
      SkipWhitespace();
      if (Consume(']')) return arr;
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseObject(int depth) {
    if (!Consume('{')) return std::nullopt;
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseRawString(key)) return std::nullopt;
      SkipWhitespace();
      if (!Consume(':')) return std::nullopt;
      SkipWhitespace();
      auto v = ParseValue(depth + 1);
      if (!v) return std::nullopt;
      obj.Set(std::move(key), std::move(*v));
      SkipWhitespace();
      if (Consume('}')) return obj;
      if (!Consume(',')) return std::nullopt;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).Run();
}

}  // namespace sketchsample
