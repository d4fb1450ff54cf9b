#include "util/json.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace kbrepair {
namespace {

TEST(JsonTest, DumpsScalars) {
  EXPECT_EQ(JsonValue::Null().Dump(), "null");
  EXPECT_EQ(JsonValue::Bool(true).Dump(), "true");
  EXPECT_EQ(JsonValue::Bool(false).Dump(), "false");
  EXPECT_EQ(JsonValue::Number(int64_t{42}).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(JsonValue::Number(2.5).Dump(), "2.5");
  EXPECT_EQ(JsonValue::String("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(JsonValue::String("a\"b\\c\n\t").Dump(),
            "\"a\\\"b\\\\c\\n\\t\"");
  // Control bytes become \u escapes; the dump stays one printable line.
  const std::string dumped = JsonValue::String(std::string("\x01", 1)).Dump();
  EXPECT_EQ(dumped, "\"\\u0001\"");
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  JsonValue object = JsonValue::Object();
  object.Set("z", JsonValue::Number(int64_t{1}));
  object.Set("a", JsonValue::Number(int64_t{2}));
  object.Set("m", JsonValue::Number(int64_t{3}));
  EXPECT_EQ(object.Dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  // Overwriting keeps the original position.
  object.Set("a", JsonValue::Number(int64_t{9}));
  EXPECT_EQ(object.Dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(JsonTest, ParsesNestedDocument) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(
      R"( {"a": [1, 2.5, -3], "b": {"c": null, "d": [true, false]},
           "e": "x\ny"} )");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("a").size(), 3u);
  EXPECT_EQ(parsed->Get("a").at(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(parsed->Get("a").at(1).AsDouble(), 2.5);
  EXPECT_EQ(parsed->Get("a").at(2).AsInt(), -3);
  EXPECT_TRUE(parsed->Get("b").Get("c").is_null());
  EXPECT_TRUE(parsed->Get("b").Get("d").at(0).AsBool());
  EXPECT_EQ(parsed->Get("e").AsString(), "x\ny");
}

TEST(JsonTest, RoundTripsThroughDump) {
  JsonValue original = JsonValue::Object();
  JsonValue list = JsonValue::Array();
  list.Append(JsonValue::String("a \"quoted\" string"));
  list.Append(JsonValue::Number(int64_t{123456789}));
  list.Append(JsonValue::Bool(false));
  list.Append(JsonValue::Null());
  original.Set("list", std::move(list));
  JsonValue nested = JsonValue::Object();
  nested.Set("k", JsonValue::Number(0.125));
  original.Set("nested", std::move(nested));

  StatusOr<JsonValue> reparsed = JsonValue::Parse(original.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, original);
}

TEST(JsonTest, ParseErrorsCarryByteOffsets) {
  StatusOr<JsonValue> bad = JsonValue::Parse("{\"a\": }");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("byte"), std::string::npos);
}

TEST(JsonTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(JsonValue::Parse("{} x").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
}

TEST(JsonTest, RejectsUnterminatedInput) {
  EXPECT_FALSE(JsonValue::Parse("{\"a\": [1, 2").ok());
  EXPECT_FALSE(JsonValue::Parse("\"abc").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, MissingMembersReadAsNull) {
  JsonValue object = JsonValue::Object();
  EXPECT_TRUE(object.Get("absent").is_null());
  EXPECT_EQ(object.Get("absent").AsInt(-1), -1);
  EXPECT_FALSE(object.Has("absent"));
  EXPECT_EQ(object.Find("absent"), nullptr);
}

TEST(JsonTest, DumpIsSingleLine) {
  JsonValue value = JsonValue::Object();
  value.Set("text", JsonValue::String("line1\nline2\rline3"));
  const std::string dumped = value.Dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(dumped.find('\r'), std::string::npos);
}

// The byte-at-a-time encoder the codec replaced; output must not change.
std::string ReferenceEscape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Plain runs of every length (empty included) between single bytes of
// every escape class: quote, backslash, the named controls, every other
// control byte, and multi-byte UTF-8 characters.
std::string MixedPayload(Rng& rng, size_t min_size) {
  static const char* const kSpecials[] = {
      "\"", "\\", "\n", "\r", "\t", "/",
      "\xc3\xa9",          // é
      "\xe2\x8a\xa5",      // ⊥
      "\xf0\x9f\x98\x80",  // 4-byte emoji
  };
  std::string out;
  while (out.size() < min_size) {
    const size_t run = rng.UniformIndex(48);
    for (size_t i = 0; i < run; ++i) {
      out += static_cast<char>(' ' + rng.UniformIndex(95));
    }
    if (rng.Bernoulli(0.3)) {
      out += static_cast<char>(rng.UniformIndex(0x20));  // \u00XX class
    } else {
      out += kSpecials[rng.UniformIndex(std::size(kSpecials))];
    }
  }
  return out;
}

TEST(JsonTest, LongStringRoundTripsWithEveryEscapeClass) {
  Rng rng(20180326);
  const std::string payload = MixedPayload(rng, 64 * 1024);
  const std::string encoded = JsonEscape(payload);
  EXPECT_EQ(encoded, ReferenceEscape(payload));
  StatusOr<JsonValue> decoded = JsonValue::Parse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->AsString(), payload);

  // Inside an object, as a create line carries its KB text.
  JsonValue line = JsonValue::Object();
  line.Set("kb_dlgp", JsonValue::String(payload));
  StatusOr<JsonValue> reparsed = JsonValue::Parse(line.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->Get("kb_dlgp").AsString(), payload);
}

// Dump() escapes strings and keys straight into its output: the bytes
// are exactly JsonEscape's, in and out of a container.
TEST(JsonTest, DumpEscapesExactlyAsJsonEscape) {
  Rng rng(20260327);
  const std::string payload = MixedPayload(rng, 16 * 1024);
  const std::string key = MixedPayload(rng, 64);
  EXPECT_EQ(JsonValue::String(payload).Dump(), ReferenceEscape(payload));

  JsonValue object = JsonValue::Object();
  object.Set(key, JsonValue::String(payload));
  object.Set("n", JsonValue::Number(int64_t{3}));
  std::string expected = "{";
  expected += ReferenceEscape(key);
  expected += ':';
  expected += ReferenceEscape(payload);
  expected += ",\"n\":3}";
  EXPECT_EQ(object.Dump(), expected);

  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::String(key));
  array.Append(JsonValue::String(""));
  expected = "[";
  expected += JsonEscape(key);
  expected += ",\"\"]";
  EXPECT_EQ(array.Dump(), expected);
}

// Escapes the encoder never writes (\/, \b, \f, \u with upper-case or
// non-ASCII code points) decode at any offset between plain runs.
TEST(JsonTest, DecodesEveryEscapeBetweenRuns) {
  struct Escape {
    const char* json;
    const char* decoded;
  };
  static const Escape kEscapes[] = {
      {"\\/", "/"},           {"\\b", "\b"},
      {"\\f", "\f"},         {"\\u0041", "A"},
      {"\\u001F", "\x1f"},   {"\\u00e9", "\xc3\xa9"},
      {"\\u22A5", "\xe2\x8a\xa5"}, {"\\\"", "\""},
      {"\\\\", "\\"},
  };
  Rng rng(7);
  std::string json = "\"";
  std::string expected;
  while (expected.size() < 64 * 1024) {
    const size_t run = rng.UniformIndex(32);
    for (size_t i = 0; i < run; ++i) {
      const char c = static_cast<char>('0' + rng.UniformIndex(43));
      json += c;
      expected += c;
    }
    const Escape& escape = kEscapes[rng.UniformIndex(std::size(kEscapes))];
    json += escape.json;
    expected += escape.decoded;
  }
  json += "\"";
  StatusOr<JsonValue> decoded = JsonValue::Parse(json);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->AsString(), expected);
}

TEST(JsonTest, UnterminatedStringsReportTheEnd) {
  for (const std::string text : {"\"abc", "\"abc\\"}) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find(
                  "byte " + std::to_string(text.size())),
              std::string::npos)
        << parsed.status();
  }
}

}  // namespace
}  // namespace kbrepair
