#include "common/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace dagperf {

Json Json::MakeBool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::MakeNumber(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::MakeString(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::AsBool() const {
  DAGPERF_CHECK(type_ == Type::kBool);
  return bool_;
}

double Json::AsNumber() const {
  DAGPERF_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& Json::AsString() const {
  DAGPERF_CHECK(type_ == Type::kString);
  return string_;
}

const std::vector<Json>& Json::AsArray() const {
  DAGPERF_CHECK(type_ == Type::kArray);
  return array_;
}

std::vector<Json>& Json::MutableArray() {
  DAGPERF_CHECK(type_ == Type::kArray);
  return array_;
}

const Json::Object& Json::AsObject() const {
  DAGPERF_CHECK(type_ == Type::kObject);
  return object_;
}

void Json::Set(std::string key, Json value) {
  DAGPERF_CHECK(type_ == Type::kObject);
  object_.insert_or_assign(std::move(key), std::move(value));
}

const Json* Json::Get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double Json::GetNumber(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type_ == Type::kNumber ? v->number_ : fallback;
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type_ == Type::kBool ? v->bool_ : fallback;
}

std::string Json::GetString(std::string_view key,
                            const std::string& fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type_ == Type::kString ? v->string_ : fallback;
}

void Json::Append(Json value) {
  DAGPERF_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

namespace {

/// The bytes EscapeTo rewrites: the quote, the backslash and the C0 controls.
constexpr std::array<bool, 256> kMustEscape = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = true;
  table['"'] = true;
  table['\\'] = true;
  return table;
}();

/// Appends the body of `s` as a JSON string (no quotes), copying runs of
/// plain bytes whole. Every byte not in kMustEscape (UTF-8 included) passes
/// through unchanged.
void AppendEscaped(std::string_view s, std::string& out) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (!kMustEscape[c]) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Appends `s` as a quoted JSON string.
void EscapeTo(std::string_view s, std::string& out) {
  out += '"';
  AppendEscaped(s, out);
  out += '"';
}

/// Writes `v` into [first, first + 32) and returns the end of the text:
/// `%.0f` for integral |v| < 1e15, `%.17g` otherwise — byte for byte, via
/// std::to_chars instead of the locale-aware printf machinery. An integral
/// value below 1e15 is exact in an int64, whose digits are `%.0f`'s; only
/// -0 needs its sign spelled out.
char* FormatNumber(double v, char* first) {
  char* const last = first + 32;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    if (v == 0 && std::signbit(v)) {
      *first++ = '-';
      *first++ = '0';
      return first;
    }
    return std::to_chars(first, last, static_cast<std::int64_t>(v)).ptr;
  }
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}

void NumberTo(double v, std::string& out) {
  char buf[32];
  out.append(buf, FormatNumber(v, buf));
}

}  // namespace

void Json::DumpTo(std::string& out, int indent) const {
  const std::string pad(indent * 2, ' ');
  const std::string pad_in((indent + 1) * 2, ' ');
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      NumberTo(number_, out);
      break;
    case Type::kString:
      EscapeTo(string_, out);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (size_t i = 0; i < array_.size(); ++i) {
        out += pad_in;
        array_[i].DumpTo(out, indent + 1);
        if (i + 1 < array_.size()) out += ',';
        out += '\n';
      }
      out += pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad_in;
        EscapeTo(key, out);
        out += ": ";
        value.DumpTo(out, indent + 1);
        if (++i < object_.size()) out += ',';
        out += '\n';
      }
      out += pad;
      out += '}';
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0);
  out += '\n';
  return out;
}

std::string Json::DumpCompact() const {
  std::string out;
  JsonWriter(out).Value(*this);
  return out;
}

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

void JsonWriter::OpenQuote() {
  if (need_comma_) {
    out_.append(",\"", 2);
  } else {
    out_ += '"';
  }
  need_comma_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  OpenQuote();
  AppendEscaped(key, out_);
  out_.append("\":", 2);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  char buf[33];  // The separator, then FormatNumber's 32 bytes.
  char* first = buf;
  if (need_comma_) *first++ = ',';
  need_comma_ = true;
  out_.append(buf, FormatNumber(value, first));
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  OpenQuote();
  AppendEscaped(value, out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(const Json& value) {
  switch (value.type_) {
    case Json::Type::kNull:
      return Null();
    case Json::Type::kBool:
      return Bool(value.bool_);
    case Json::Type::kNumber:
      return Number(value.number_);
    case Json::Type::kString:
      return String(value.string_);
    case Json::Type::kArray:
      BeginArray();
      for (const Json& element : value.array_) Value(element);
      return EndArray();
    case Json::Type::kObject:
      BeginObject();
      for (const auto& [key, member] : value.object_) {
        Key(key);
        Value(member);
      }
      return EndObject();
  }
  return *this;
}

namespace {

/// Recursion bound of the parser. Spec documents are a few levels deep;
/// anything deeper is adversarial input trying to overflow the stack, and is
/// rejected with a parse error instead.
constexpr int kMaxParseDepth = 128;

}  // namespace

/// Recursive-descent parser over a string with position tracking. Values are
/// built in place — in the array element or object member they belong to —
/// so no Json is moved on the way up.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    Json value;
    if (Status status = ParseValue(&value); !status.ok()) return status;
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Parses one value into `*out`, a null Json.
  Status ParseValue(Json* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    if (depth_ >= kMaxParseDepth) return Error("nesting too deep");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type_ = Json::Type::kString;
      return ParseString(&out->string_);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseKeyword(Json* out) {
    const auto match = [&](const char* word) {
      const size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return true;
      }
      return false;
    };
    for (const bool value : {true, false}) {
      if (match(value ? "true" : "false")) {
        out->type_ = Json::Type::kBool;
        out->bool_ = value;
        return Status::Ok();
      }
    }
    if (match("null")) return Status::Ok();
    return Error("invalid keyword");
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) return Error("invalid number");
    // from_chars reads the token in place; whatever it does not cleanly
    // consume (a leading '+', overflow, underflow, a malformed token) goes
    // through strtod as before, so every token keeps its value and every
    // rejected token stays rejected.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result read = std::from_chars(first, last, value);
    if (read.ec != std::errc() || read.ptr != last) {
      const std::string token(first, last);
      char* end = nullptr;
      value = std::strtod(token.c_str(), &end);
      if (end == nullptr || *end != '\0') return Error("invalid number");
    }
    out->type_ = Json::Type::kNumber;
    out->number_ = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    while (pos_ < text_.size()) {
      // Copy the run of plain characters up to the next quote or escape.
      std::size_t run_end = pos_;
      while (run_end < text_.size() && text_[run_end] != '"' &&
             text_[run_end] != '\\') {
        ++run_end;
      }
      out->append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) break;
      if (text_[pos_++] == '"') return Status::Ok();
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          int code = 0;
          for (std::size_t k = 0; k < 4; ++k) {
            const int digit = HexDigit(text_[pos_ + k]);
            if (digit < 0) return Error("bad \\u escape");
            code = code * 16 + digit;
          }
          pos_ += 4;
          // ASCII only; everything else degrades to '?' (the library never
          // generates non-ASCII escapes).
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  Status ParseArray(Json* out) {
    if (!Consume('[')) return Error("expected array");
    ++depth_;
    out->type_ = Json::Type::kArray;
    std::vector<Json>& elements = out->array_;
    SkipSpace();
    if (Consume(']')) {
      --depth_;
      return Status::Ok();
    }
    while (true) {
      if (Status status = ParseValue(&elements.emplace_back()); !status.ok()) {
        return status;
      }
      if (Consume(']')) {
        --depth_;
        return Status::Ok();
      }
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(Json* out) {
    if (!Consume('{')) return Error("expected object");
    ++depth_;
    out->type_ = Json::Type::kObject;
    SkipSpace();
    if (Consume('}')) {
      --depth_;
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (Status status = ParseString(&key); !status.ok()) return status;
      if (!Consume(':')) return Error("expected ':'");
      // A repeated key keeps its last value, as Set would.
      const auto [member, inserted] = out->object_.try_emplace(std::move(key));
      if (!inserted) member->second = Json();
      if (Status status = ParseValue(&member->second); !status.ok()) {
        return status;
      }
      if (Consume('}')) {
        --depth_;
        return Status::Ok();
      }
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Result<Json> Json::Parse(const std::string& text) {
  JsonParser parser(text);
  return parser.ParseDocument();
}

}  // namespace dagperf
