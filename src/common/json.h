#ifndef DAGPERF_COMMON_JSON_H_
#define DAGPERF_COMMON_JSON_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dagperf {

/// Minimal JSON document model with a strict recursive-descent parser and a
/// writer — enough for the library's workload/workflow files, with no
/// third-party dependency. Numbers are doubles; object keys keep insertion
/// order on write (std::map order, i.e. sorted, which makes output stable).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  /// Object members, sorted by key; the transparent comparator lets Get look
  /// a key up without building a std::string.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::kNull) {}
  static Json MakeBool(bool value);
  static Json MakeNumber(double value);
  static Json MakeString(std::string value);
  static Json MakeArray();
  static Json MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors abort on type mismatch (programming error); use the
  /// Get* helpers for fallible reads of parsed input.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<Json>& AsArray() const;
  std::vector<Json>& MutableArray();
  const Object& AsObject() const;

  /// Object field access. Set replaces; Get returns nullptr when absent or
  /// when this value is not an object.
  void Set(std::string key, Json value);
  const Json* Get(std::string_view key) const;

  /// Fallible typed field reads with defaults, for consuming user files.
  double GetNumber(std::string_view key, double fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;
  std::string GetString(std::string_view key, const std::string& fallback) const;

  /// Appends to an array value.
  void Append(Json value);

  /// Serialises with 2-space indentation and escaped strings.
  std::string Dump() const;

  /// Serialises to a single line with no whitespace — the newline-delimited
  /// framing of the service wire protocol (one document per line). Written
  /// through JsonWriter, so a document streamed through a JsonWriter in
  /// sorted key order is byte-identical to the DumpCompact of its tree.
  std::string DumpCompact() const;

  /// Strict parse of a complete JSON document (trailing garbage rejected).
  static Result<Json> Parse(const std::string& text);

 private:
  friend class JsonParser;
  friend class JsonWriter;

  void DumpTo(std::string& out, int indent) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  Object object_;
};

/// Append-only writer of one compact JSON document into a caller's string:
/// the same number, escape and structure code as Json::DumpCompact, without
/// building a tree. Commas are placed automatically; the caller opens and
/// closes containers in order and emits object keys in sorted order (the
/// order DumpCompact uses), which keeps the output a fixpoint of
/// Json::Parse(out)->DumpCompact().
///
/// Numbers: integral values with |v| < 1e15 print with no fraction (`%.0f`);
/// everything else prints with 17 significant digits (`%.17g`), which
/// round-trips every finite double exactly. Non-finite values print as
/// `inf`/`nan`, which no JSON parser reads back, so callers must not write
/// them.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Null();
  JsonWriter& Bool(bool value);
  JsonWriter& Number(double value);
  JsonWriter& String(std::string_view value);
  /// A whole tree, exactly as DumpCompact writes it.
  JsonWriter& Value(const Json& value);

 private:
  /// Writes the ',' that separates this value or key from its predecessor.
  void Separate();
  /// Separate(), then the opening quote of a key or string.
  void OpenQuote();

  std::string& out_;
  /// Whether the enclosing container already holds an element.
  bool need_comma_ = false;
};

}  // namespace dagperf

#endif  // DAGPERF_COMMON_JSON_H_
