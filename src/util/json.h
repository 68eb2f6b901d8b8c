// Minimal JSON value type with parsing and serialization, and a one-pass
// writer that prints the same bytes without building a value.
//
// Exists so the bench reporter (bench/report.h) and the regression gate
// (tools/bench_gate.cc) agree on one schema without an external dependency,
// and so the service writes its answers (src/service/service.h) without a
// tree. Supports the full JSON data model; numbers are stored as double
// (enough for bench metrics; 2^53 integer precision).
#ifndef SKETCHSAMPLE_UTIL_JSON_H_
#define SKETCHSAMPLE_UTIL_JSON_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sketchsample {

/// A JSON document node. Object member order is preserved so emitted files
/// diff cleanly across runs.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed reads; throw std::logic_error on a type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;

  /// Object helpers. Get returns nullptr when the key is absent (or this is
  /// not an object); Set appends or overwrites.
  const JsonValue* Get(const std::string& key) const;
  void Set(std::string key, JsonValue value);

  /// Convenience typed lookups for gate/report code.
  std::optional<double> GetNumber(const std::string& key) const;
  std::optional<std::string> GetString(const std::string& key) const;

  /// Array append.
  void Append(JsonValue value);

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = 0) const;

  /// Parses `text`. Returns std::nullopt on any syntax error, trailing
  /// garbage, or nesting deeper than 200 levels.
  static std::optional<JsonValue> Parse(const std::string& text);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Append-only compact JSON writer: writes a document straight into a
/// string in one pass, with no JsonValue tree, no per-member allocation and
/// no key search. Numbers and strings go through the formatters
/// JsonValue::Dump uses, so a document written here is byte-identical to
/// Dump of the same members built as a tree (null for NaN and infinities,
/// integers below 2^53 in printf's "%.0f" form, others in "%.17g").
///
/// The caller writes a well-formed document: Key only inside an object and
/// exactly one value after each Key. Members separate themselves.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Number(double d);
  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b);
  /// Members already written by another JsonWriter (`"k":v,...`, no
  /// braces), appended as the next members of the open object.
  JsonWriter& Members(std::string_view members);

 private:
  std::string& out_;
  bool need_comma_ = false;  // a member or value precedes the next Key
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_UTIL_JSON_H_
