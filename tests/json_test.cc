#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dagperf {
namespace {

TEST(JsonTest, BuildAndDump) {
  Json obj = Json::MakeObject();
  obj.Set("name", Json::MakeString("x"));
  obj.Set("count", Json::MakeNumber(3));
  obj.Set("enabled", Json::MakeBool(true));
  Json arr = Json::MakeArray();
  arr.Append(Json::MakeNumber(1));
  arr.Append(Json::MakeNumber(2.5));
  obj.Set("values", std::move(arr));
  const std::string dump = obj.Dump();
  EXPECT_NE(dump.find("\"name\": \"x\""), std::string::npos);
  EXPECT_NE(dump.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(dump.find("2.5"), std::string::npos);
}

TEST(JsonTest, RoundTrip) {
  Json obj = Json::MakeObject();
  obj.Set("s", Json::MakeString("line\nbreak \"quoted\" \\slash"));
  obj.Set("n", Json::MakeNumber(-1.25e-3));
  obj.Set("b", Json::MakeBool(false));
  obj.Set("z", Json());
  Json arr = Json::MakeArray();
  arr.Append(Json::MakeString("a"));
  Json nested = Json::MakeObject();
  nested.Set("k", Json::MakeNumber(7));
  arr.Append(std::move(nested));
  obj.Set("arr", std::move(arr));

  const Json parsed = Json::Parse(obj.Dump()).value();
  EXPECT_EQ(parsed.GetString("s", ""), "line\nbreak \"quoted\" \\slash");
  EXPECT_DOUBLE_EQ(parsed.GetNumber("n", 0), -1.25e-3);
  EXPECT_FALSE(parsed.GetBool("b", true));
  EXPECT_TRUE(parsed.Get("z")->is_null());
  ASSERT_EQ(parsed.Get("arr")->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.Get("arr")->AsArray()[1].GetNumber("k", 0), 7);
}

TEST(JsonTest, ParsesCommonForms) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_TRUE(Json::Parse("true").value().AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("42").value().AsNumber(), 42);
  EXPECT_DOUBLE_EQ(Json::Parse("-3.5e2").value().AsNumber(), -350);
  EXPECT_EQ(Json::Parse("\"hi\"").value().AsString(), "hi");
  EXPECT_TRUE(Json::Parse("[]").value().AsArray().empty());
  EXPECT_TRUE(Json::Parse("{}").value().AsObject().empty());
  EXPECT_EQ(Json::Parse(" [1, [2, 3], {\"a\": []}] ").value().AsArray().size(), 3u);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\": }", "tru", "1 2", "{\"a\" 1}",
                          "\"unterminated", "[1,]", "nul"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, GettersFallBack) {
  const Json obj = Json::Parse("{\"a\": 1, \"s\": \"x\"}").value();
  EXPECT_DOUBLE_EQ(obj.GetNumber("a", 9), 1);
  EXPECT_DOUBLE_EQ(obj.GetNumber("missing", 9), 9);
  EXPECT_DOUBLE_EQ(obj.GetNumber("s", 9), 9);  // Wrong type -> fallback.
  EXPECT_EQ(obj.GetString("missing", "d"), "d");
  EXPECT_EQ(obj.Get("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedUnicodeEscapes) {
  // Exactly four hex digits: anything else used to slip through strtol
  // (NUL bytes, 'A' from " 041"/"+041", 0x81 from "-07f").
  for (const char* bad : {R"("\u00zz")", R"("\u 041")", R"("\u+041")",
                          R"("\u-07f")", R"("\u00")", R"("\u12")"}) {
    Result<Json> parsed = Json::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find("bad \\u escape"), std::string::npos)
        << parsed.status().message();
  }
  EXPECT_EQ(Json::Parse(R"("\u0041\u007a\u00e9\uFFFF")").value().AsString(),
            "Az??");
  EXPECT_EQ(Json::Parse(R"("\u0000")").value().AsString(), std::string(1, '\0'));
}

// ---------------------------------------------------------------------------
// Byte identity of the codec: the writer must reproduce printf's formatting
// and the parser strtod's values, byte for byte and bit for bit.

/// The number format of the wire, as printf spells it.
std::string PrintfNumber(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string WriterNumber(double v) {
  std::string out;
  JsonWriter(out).Number(v);
  return out;
}

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ToBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(JsonCodecTest, NumberFormatMatchesPrintfReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.5e-3, 123456.789,
      kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), std::numeric_limits<double>::epsilon(),
      1e15, -1e15, 9007199254740992.0, 9007199254740993.0, 1e21, 1e22, 1e300};
  // Integers on both sides of 1e15 (the %.0f / %.17g switch).
  for (double base : {1e15, -1e15, 1e14, 1e16}) {
    for (int d = -50; d <= 50; ++d) values.push_back(base + d);
    values.push_back(std::nextafter(base, 0.0));
    values.push_back(std::nextafter(base, 2 * base));
  }
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  std::uniform_int_distribution<std::int64_t> integer(-(std::int64_t{1} << 53),
                                                      std::int64_t{1} << 53);
  for (int i = 0; i < 40000; ++i) {
    values.push_back(FromBits(rng()));  // Every class: NaNs, subnormals, ...
    values.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
    values.push_back(static_cast<double>(integer(rng)));
    // Subnormals and near-integers, where digit generation is fiddly.
    values.push_back(FromBits(rng() & 0x000fffffffffffffULL) * (i % 2 ? 1 : -1));
    values.push_back(std::nextafter(std::round(unit(rng) * 1e6), kInf));
  }
  ASSERT_GE(values.size(), 100000u);
  int mismatches = 0;
  for (double v : values) {
    const std::string expected = PrintfNumber(v);
    if (WriterNumber(v) != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "value bits 0x" << std::hex << ToBits(v) << ": writer "
                    << WriterNumber(v) << " vs printf " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The tree writers share the number code.
  EXPECT_EQ(Json::MakeNumber(-0.0).DumpCompact(), "-0");
  EXPECT_EQ(Json::MakeNumber(0.1).Dump(), "0.10000000000000001\n");
}

/// The number grammar the parser has always had: an optional sign, then a
/// run of digits, '.', 'e', 'E', '+' and '-' holding at least one digit,
/// accepted iff strtod consumes all of it — with strtod's value.
bool ReferenceNumber(const std::string& token, double* value) {
  if (token.find_first_of("0123456789") == std::string::npos) return false;
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

TEST(JsonCodecTest, ParsedNumbersMatchStrtodBitForBit) {
  std::vector<std::string> tokens = {
      "0", "-0", "+0", "+1", ".5", "-.5", "5.", "-5.", "1.e5", "0001", "1e400",
      "-1e400", "1e-400", "-1e-400", "4.9e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "2.2250738585072011e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "1e", "1e+", "e5",
      "--1", "+-1", "-+1", "1.2.3", "1e5.5", "1-2", "1E+02", "1e-02", ".", "+",
      "-", "1..", "123456789012345678901234567890",
      "0.1000000000000000055511151231257827021181583404541015625",
      "9007199254740993", "179769313486231570814527423731704356798070567525844996"
      "598917476803157260780028538760589558632766878171540458953514382464234321"
      "326889464182768467546703537516986049910576551282076245490090389328944075"
      "868508455133942304583236903222948165808559332123348274797826204144723168"
      "738177180919299881250404026184124858368"};
  std::mt19937_64 rng(7);
  const std::string alphabet = "0123456789.eE+-";
  std::uniform_int_distribution<int> length(1, 12);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(alphabet.size()) - 1);
  std::uniform_int_distribution<int> digit(0, 9);
  for (int i = 0; i < 100000; ++i) {
    std::string token;
    const int n = length(rng);
    for (int k = 0; k < n; ++k) {
      // Mostly digits, so a good share of tokens is well formed.
      token += k % 3 == 2 ? alphabet[pick(rng)] : static_cast<char>('0' + digit(rng));
    }
    if (i % 4 == 0) token = "-" + token;
    if (i % 7 == 0) token = "+" + token;
    tokens.push_back(token);
    // Well-formed numbers over the whole exponent range.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d.%de%d", digit(rng), static_cast<int>(rng() % 100000),
                  static_cast<int>(rng() % 800) - 400);
    tokens.push_back(buf);
  }
  int accepted = 0;
  for (const std::string& token : tokens) {
    double expected = 0.0;
    const bool ok = ReferenceNumber(token, &expected);
    Result<Json> parsed = Json::Parse(token);
    ASSERT_EQ(parsed.ok(), ok) << token;
    if (!ok) continue;
    ++accepted;
    ASSERT_EQ(ToBits(parsed.value().AsNumber()), ToBits(expected)) << token;
  }
  EXPECT_GT(accepted, 50000);
}

TEST(JsonCodecTest, EveryByteSurvivesEscapeDumpAndParse) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::vector<std::string> strings = {all, "", "plain", "\"\\\n\t\r\b\f"};
  for (int c = 0; c < 256; ++c) {
    strings.push_back(std::string(1, static_cast<char>(c)));
    strings.push_back("a" + std::string(1, static_cast<char>(c)) + "b");
  }
  for (const std::string& s : strings) {
    const Json value = Json::MakeString(s);
    for (const std::string& text : {value.DumpCompact(), value.Dump()}) {
      Result<Json> parsed = Json::Parse(text);
      ASSERT_TRUE(parsed.ok()) << text;
      EXPECT_EQ(parsed.value().AsString(), s);
    }
    // As an object key too.
    std::string line;
    JsonWriter(line).BeginObject().Key(s).String(s).EndObject();
    Result<Json> parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_NE(parsed.value().Get(s), nullptr);
    EXPECT_EQ(parsed.value().Get(s)->AsString(), s);
    EXPECT_EQ(parsed.value().DumpCompact(), line);
  }
  // Escapes are the short forms plus lowercase \u00xx for other controls.
  EXPECT_EQ(Json::MakeString(std::string("\"\\\n\t\r\x01\x1f\b\x7f", 9))
                .DumpCompact(),
            "\"\\\"\\\\\\n\\t\\r\\u0001\\u001f\\u0008\x7f\"");
}

TEST(JsonCodecTest, StreamedDocumentEqualsTreeDump) {
  Json tree = Json::MakeObject();
  tree.Set("b", Json::MakeNumber(2.5));
  Json list = Json::MakeArray();
  list.Append(Json());
  list.Append(Json::MakeBool(true));
  list.Append(Json::MakeArray());
  list.Append(Json::MakeObject());
  list.Append(Json::MakeString("x\"y"));
  tree.Set("a", std::move(list));
  tree.Set("c", Json::MakeObject());

  std::string line;
  JsonWriter w(line);
  w.BeginObject();
  w.Key("a").BeginArray().Null().Bool(true).BeginArray().EndArray();
  w.BeginObject().EndObject().String("x\"y").EndArray();
  w.Key("b").Number(2.5);
  w.Key("c").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(line, tree.DumpCompact());
  EXPECT_EQ(line, R"({"a":[null,true,[],{},"x\"y"],"b":2.5,"c":{}})");

  // Value() splices a whole tree in place.
  std::string spliced;
  JsonWriter(spliced).BeginArray().Number(1).Value(tree).Number(2).EndArray();
  EXPECT_EQ(spliced, "[1," + tree.DumpCompact() + ",2]");
}

TEST(JsonDeathTest, TypeMismatchAborts) {
  const Json n = Json::MakeNumber(1);
  EXPECT_DEATH((void)n.AsString(), "CHECK");
}

}  // namespace
}  // namespace dagperf
