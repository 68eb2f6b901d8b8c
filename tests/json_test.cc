// Tests for the minimal JSON value type backing bench reports and the
// regression gate.
#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace sketchsample {
namespace {

TEST(JsonTest, DefaultIsNull) {
  JsonValue v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.Dump(), "null");
}

TEST(JsonTest, ScalarConstructionAndDump) {
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Number(3.0).Dump(), "3");
  EXPECT_EQ(JsonValue::Number(-0.5).Dump(), "-0.5");
  EXPECT_EQ(JsonValue::String("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, StringEscapesAreDumpedAndReparsed) {
  const std::string raw = "line\nquote\"back\\slash\ttab\x01";
  const JsonValue v = JsonValue::String(raw);
  const std::string dumped = v.Dump();
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), raw);
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", JsonValue::Number(1));
  obj.Set("apple", JsonValue::Number(2));
  obj.Set("mango", JsonValue::Number(3));
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // Overwrite keeps position.
  obj.Set("apple", JsonValue::Number(9));
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, GetAndTypedLookups) {
  JsonValue obj = JsonValue::Object();
  obj.Set("n", JsonValue::Number(2.5));
  obj.Set("s", JsonValue::String("x"));
  ASSERT_NE(obj.Get("n"), nullptr);
  EXPECT_EQ(obj.Get("missing"), nullptr);
  EXPECT_EQ(obj.GetNumber("n"), 2.5);
  EXPECT_EQ(obj.GetString("s"), "x");
  EXPECT_FALSE(obj.GetNumber("s").has_value());   // wrong type
  EXPECT_FALSE(obj.GetString("missing").has_value());
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const JsonValue v = JsonValue::Number(1);
  EXPECT_THROW(v.AsString(), std::logic_error);
  EXPECT_THROW(v.AsArray(), std::logic_error);
  EXPECT_THROW(v.AsObject(), std::logic_error);
  EXPECT_THROW(JsonValue::String("x").AsNumber(), std::logic_error);
}

TEST(JsonTest, ParseRoundTripsNestedDocument) {
  const std::string text =
      "{\"name\":\"bench\",\"points\":[{\"labels\":{\"skew\":\"0.8\"},"
      "\"metrics\":{\"err\":0.0125,\"n\":100}}],\"flag\":true,\"none\":null}";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->GetString("name"), "bench");
  const JsonValue* points = parsed->Get("points");
  ASSERT_NE(points, nullptr);
  ASSERT_TRUE(points->is_array());
  ASSERT_EQ(points->AsArray().size(), 1u);
  const JsonValue& point = points->AsArray()[0];
  EXPECT_EQ(point.Get("labels")->GetString("skew"), "0.8");
  EXPECT_DOUBLE_EQ(*point.Get("metrics")->GetNumber("err"), 0.0125);
  EXPECT_TRUE(parsed->Get("flag")->AsBool());
  EXPECT_TRUE(parsed->Get("none")->is_null());
  // Dump → parse again must agree.
  auto reparsed = JsonValue::Parse(parsed->Dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->Dump(), parsed->Dump());
}

TEST(JsonTest, ParseAcceptsNumberForms) {
  for (const char* text : {"0", "-0", "12345", "-7.25", "1e3", "1.5E-2",
                           "2.25e+1"}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_TRUE(parsed->is_number()) << text;
  }
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1.5E-2")->AsNumber(), 0.015);
}

TEST(JsonTest, NumbersSurviveRoundTripExactly) {
  for (double d : {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, -2.5e17}) {
    auto parsed = JsonValue::Parse(JsonValue::Number(d).Dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->AsNumber(), d);
  }
}

// The printf form numbers were written in before std::to_chars: "%.0f" for
// integers below 2^53, "%.17g" otherwise, null for NaN and infinities.
std::string PrintfNumber(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[64];
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Answer bodies must stay byte-identical to the printf-era goldens, so the
// number writer is pinned to printf's output on random bit patterns (every
// exponent, sign and NaN payload), uniform ranges and the edge cases.
TEST(JsonTest, NumbersMatchPrintfByteForByte) {
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.95, 0.9, 0.99, 0.999, 0.8, 0.1, 0.01,
      0.05, 1.0 / 3.0, two53, -two53, two53 - 1, -(two53 - 1), two53 + 2,
      -(two53 + 2), two53 - 0.5, 1e15 + 0.5, 4503599627370495.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000FFFFFFFFFFFFFull),  // largest subnormal
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1e-300, 1e300, 5e-324, 1e21, 1e22,
      123456789.123456789, -2.5e17, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  Xoshiro256 rng(20261019);
  for (int i = 0; i < (1 << 20); ++i) values.push_back(FromBits(rng()));
  for (int i = 0; i < (1 << 16); ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
    values.push_back(u);                                  // [0, 1)
    values.push_back((u - 0.5) * 2e6);                    // [-1e6, 1e6)
    values.push_back(std::floor((u - 0.5) * 2 * two53));  // integers
    values.push_back(std::ldexp(u, static_cast<int>(rng() % 2000) - 1000));
  }
  size_t mismatches = 0;
  for (double d : values) {
    const std::string got = JsonValue::Number(d).Dump();
    const std::string want = PrintfNumber(d);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::hex << [&] {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return bits;
      }() << ": wrote " << got << ", printf writes " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " numbers";
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char* text :
       {"", "   ", "{", "}", "[1,", "[1,]", "{\"a\":}", "{\"a\" 1}",
        "{\"a\":1,}", "\"unterminated", "tru", "nul", "01", "+1", "1.",
        ".5", "NaN", "Infinity", "{'a':1}", "\"bad\\x\"", "\"\\u12\"",
        "[1] trailing", "{} {}", "1 2"}) {
    EXPECT_FALSE(JsonValue::Parse(text).has_value()) << "accepted: " << text;
  }
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 500; ++i) deep += '[';
  for (int i = 0; i < 500; ++i) deep += ']';
  EXPECT_FALSE(JsonValue::Parse(deep).has_value());
  // But reasonable nesting is fine.
  std::string ok = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(JsonValue::Parse(ok).has_value());
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto parsed = JsonValue::Parse("\"\\u00e9\\u4e2d\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->AsString(), "\xc3\xa9\xe4\xb8\xad");
}

// The escaper appends runs of plain bytes whole; its bytes must be those
// of escaping byte by byte, for every byte value in every position.
TEST(JsonTest, StringsMatchByteByByteEscaping) {
  const auto reference = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
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
            out.push_back(c);
          }
      }
    }
    return out + "\"";
  };
  std::vector<std::string> strings = {"", "plain", "\"", "a\\", "\n\n"};
  for (int b = 0; b < 256; ++b) {
    strings.push_back(std::string(1, static_cast<char>(b)));
    strings.push_back("ab" + std::string(1, static_cast<char>(b)) + "cd");
  }
  Xoshiro256 rng(20261021);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 24, ' ');
    for (char& c : s) {
      c = static_cast<char>(rng() % 6 == 0 ? rng() % 0x22 : rng());
    }
    strings.push_back(s);
  }
  for (const std::string& s : strings) {
    EXPECT_EQ(JsonValue::String(s).Dump(), reference(s));
  }
}

// JsonWriter prints what Dump prints for the same members, nested objects,
// pre-written members and non-finite numbers included.
TEST(JsonTest, WriterMatchesDumpOfTheSameTree) {
  JsonValue inner = JsonValue::Object();
  inner.Set("low", JsonValue::Number(-0.0));
  inner.Set("high", JsonValue::Number(std::numeric_limits<double>::infinity()));
  JsonValue tree = JsonValue::Object();
  tree.Set("name", JsonValue::String("q\"uote\n"));
  tree.Set("n", JsonValue::Number(9007199254740993.0));
  tree.Set("ok", JsonValue::Bool(false));
  tree.Set("ci", inner);
  tree.Set("x", JsonValue::Number(0.95));
  tree.Set("empty", JsonValue::Object());
  tree.Set("nan", JsonValue::Number(std::numeric_limits<double>::quiet_NaN()));

  std::string members;
  JsonWriter m(members);
  m.Key("x").Number(0.95).Key("empty").BeginObject().EndObject();
  std::string out;
  JsonWriter w(out);
  w.BeginObject().Key("name").String("q\"uote\n");
  w.Key("n").Number(9007199254740993.0).Key("ok").Bool(false);
  w.Key("ci").BeginObject().Key("low").Number(-0.0);
  w.Key("high").Number(std::numeric_limits<double>::infinity()).EndObject();
  w.Members(members).Members("");
  w.Key("nan").Number(std::numeric_limits<double>::quiet_NaN()).EndObject();
  EXPECT_EQ(out, tree.Dump());
}

TEST(JsonTest, PrettyPrintIsStable) {
  JsonValue obj = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Number(1));
  arr.Append(JsonValue::Number(2));
  obj.Set("a", std::move(arr));
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto parsed = JsonValue::Parse(pretty);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Dump(), obj.Dump());
}

}  // namespace
}  // namespace sketchsample
