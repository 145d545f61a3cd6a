#include "serialize/json.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(JsonValue(nullptr).Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-3).Dump(), "-3");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, DoublesKeepPrecision) {
  JsonValue v(0.1);
  auto parsed = JsonValue::Parse(v.Dump()).ValueOrDie();
  EXPECT_DOUBLE_EQ(parsed.number_value(), 0.1);
}

TEST(JsonTest, IntegersPrintWithoutFraction) {
  EXPECT_EQ(JsonValue(static_cast<int64_t>(1234567890123)).Dump(),
            "1234567890123");
  EXPECT_EQ(JsonValue(5.0).Dump(), "5");
}

TEST(JsonTest, StringEscaping) {
  JsonValue v(std::string("a\"b\\c\nd\te\x01"));
  std::string dumped = v.Dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  auto parsed = JsonValue::Parse(dumped).ValueOrDie();
  EXPECT_EQ(parsed.string_value(), v.string_value());
}

TEST(JsonTest, EscapesAtStringEdgesAndAdjacent) {
  // Escapes first, last and back to back, between runs of plain text, so
  // every boundary of the run-at-a-time append is crossed.
  const std::string raw = std::string("\"\\\n") + "plain" + "\t\x1f\"" +
                          "x" + "\r\b\f" + std::string(1, '\0') + "end\\\"";
  const std::string dumped = JsonValue(raw).Dump();
  EXPECT_EQ(dumped,
            "\"\\\"\\\\\\nplain\\t\\u001f\\\"x\\r\\b\\f\\u0000end\\\\\\\"\"");
  EXPECT_EQ(JsonValue::Parse(dumped).ValueOrDie().string_value(), raw);
  EXPECT_EQ(JsonValue(std::string()).Dump(), "\"\"");
  EXPECT_EQ(JsonValue(std::string("\n")).Dump(), "\"\\n\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", 1);
  obj.Set("alpha", 2);
  obj.Set("mike", 3);
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"alpha\":2,\"mike\":3}");
}

TEST(JsonTest, SetOverwritesInPlace) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", 1);
  obj.Set("b", 2);
  obj.Set("a", 9);
  EXPECT_EQ(obj.Dump(), "{\"a\":9,\"b\":2}");
  EXPECT_EQ(obj.ObjectSize(), 2u);
}

TEST(JsonTest, TypedGetters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", "text");
  obj.Set("i", 41);
  obj.Set("d", 2.5);
  obj.Set("b", true);
  EXPECT_EQ(obj.GetString("s").ValueOrDie(), "text");
  EXPECT_EQ(obj.GetInt64("i").ValueOrDie(), 41);
  EXPECT_DOUBLE_EQ(obj.GetDouble("d").ValueOrDie(), 2.5);
  EXPECT_TRUE(obj.GetBool("b").ValueOrDie());
  EXPECT_TRUE(obj.GetString("missing").status().IsNotFound());
  EXPECT_TRUE(obj.GetInt64("s").status().IsInvalidArgument());
}

TEST(JsonTest, GettersWithDefaults) {
  JsonValue obj = JsonValue::Object();
  obj.Set("x", 5);
  EXPECT_EQ(obj.GetInt64Or("x", -1), 5);
  EXPECT_EQ(obj.GetInt64Or("y", -1), -1);
  EXPECT_EQ(obj.GetStringOr("y", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(obj.GetDoubleOr("y", 1.5), 1.5);
}

TEST(JsonTest, ArrayAccess) {
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append("two");
  EXPECT_EQ(arr.ArraySize(), 2u);
  EXPECT_EQ(arr.At(1).ValueOrDie()->string_value(), "two");
  EXPECT_TRUE(arr.At(2).status().IsOutOfRange());
}

TEST(JsonTest, ParseWhitespaceAndNesting) {
  auto v = JsonValue::Parse(R"(  { "a" : [ 1 , { "b" : null } ] , "c": -2e3 } )")
               .ValueOrDie();
  EXPECT_TRUE(v.is_object());
  auto* a = v.Get("a").ValueOrDie();
  EXPECT_EQ(a->ArraySize(), 2u);
  EXPECT_TRUE(a->At(1).ValueOrDie()->Get("b").ValueOrDie()->is_null());
  EXPECT_DOUBLE_EQ(v.GetDouble("c").ValueOrDie(), -2000.0);
}

TEST(JsonTest, ParseEmptyContainers) {
  EXPECT_EQ(JsonValue::Parse("{}").ValueOrDie().ObjectSize(), 0u);
  EXPECT_EQ(JsonValue::Parse("[]").ValueOrDie().ArraySize(), 0u);
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto v = JsonValue::Parse("\"\\u0041\\u00e9\\u20ac\"").ValueOrDie();
  EXPECT_EQ(v.string_value(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_TRUE(JsonValue::Parse("").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("{").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("[1,]").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("{\"a\":}").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("tru").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("\"unterminated").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("1 2").status().IsCorruption());
  EXPECT_TRUE(JsonValue::Parse("{\"a\":1 \"b\":2}").status().IsCorruption());
}

TEST(JsonTest, EqualityIsDeep) {
  auto a = JsonValue::Parse(R"({"x":[1,2,{"y":true}]})").ValueOrDie();
  auto b = JsonValue::Parse(R"({"x":[1,2,{"y":true}]})").ValueOrDie();
  auto c = JsonValue::Parse(R"({"x":[1,2,{"y":false}]})").ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(JsonTest, PrettyDumpParsesBack) {
  auto v = JsonValue::Parse(R"({"a":{"b":[1,2,3]},"c":"x"})").ValueOrDie();
  auto round = JsonValue::Parse(v.DumpPretty()).ValueOrDie();
  EXPECT_EQ(v, round);
}

// Property test: randomly generated documents survive dump->parse.
JsonValue RandomJson(Rng* rng, int depth) {
  switch (depth <= 0 ? rng->NextBounded(4) : rng->NextBounded(6)) {
    case 0:
      return JsonValue(nullptr);
    case 1:
      return JsonValue(rng->NextBounded(2) == 0);
    case 2:
      return JsonValue(rng->NextUniform(-1e6, 1e6));
    case 3: {
      std::string s;
      size_t len = rng->NextBounded(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng->NextBounded(95)));
      }
      return JsonValue(std::move(s));
    }
    case 4: {
      JsonValue arr = JsonValue::Array();
      size_t n = rng->NextBounded(5);
      for (size_t i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::Object();
      size_t n = rng->NextBounded(5);
      for (size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(i), RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripSweep, DumpParseIsIdentity) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    JsonValue doc = RandomJson(&rng, 4);
    auto parsed = JsonValue::Parse(doc.Dump());
    ASSERT_OK(parsed.status());
    EXPECT_EQ(parsed.ValueOrDie(), doc);
    auto pretty = JsonValue::Parse(doc.DumpPretty());
    ASSERT_OK(pretty.status());
    EXPECT_EQ(pretty.ValueOrDie(), doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL));

}  // namespace
}  // namespace mmm
