/**
 * @file
 * The JSON document model (sim/json.hh): strict parsing, deterministic
 * serialization, and the typed accessors the spec layer relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/json.hh"

using namespace psim;
using json::Value;

TEST(JsonParse, RoundTripsACanonicalDocument)
{
    const std::string text =
        R"({"schema":"psim-results-v1","n":3,"neg":-2.5,"flag":true,)"
        R"("none":null,"arr":[1,"two",false],"nested":{"a":{"b":[]}}})";
    Value doc = json::parse(text, "doc");
    EXPECT_EQ(json::serialize(doc), text);
}

TEST(JsonParse, PreservesMemberOrder)
{
    // Serialization must be insertion-ordered, not sorted: golden
    // documents are compared byte-for-byte.
    Value doc = json::parse(R"({"z":1,"a":2,"m":3})", "doc");
    EXPECT_EQ(json::serialize(doc), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonParse, ReadsEscapesAndUnicode)
{
    Value doc = json::parse(R"({"s":"a\"b\\c\n\tA"})", "doc");
    EXPECT_EQ(doc.find("s")->asString("s"), "a\"b\\c\n\tA");
}

TEST(JsonParse, NumbersSurviveExactly)
{
    // %.17g guarantees an exact double round-trip.
    Value doc = json::parse(R"([0.1,12345678901234567,1e-300])", "doc");
    const auto &arr = doc.asArray("doc");
    EXPECT_EQ(arr[0].asNumber("v"), 0.1);
    EXPECT_EQ(arr[1].asNumber("v"), 12345678901234567.0);
    EXPECT_EQ(arr[2].asNumber("v"), 1e-300);
    EXPECT_EQ(json::serialize(doc), json::serialize(json::parse(
                  json::serialize(doc), "again")));
}

TEST(JsonSerialize, NonFiniteNumbersBecomeNull)
{
    Value v = Value::makeObject();
    v.set("nan", Value(std::nan("")));
    v.set("inf", Value(HUGE_VAL));
    EXPECT_EQ(json::serialize(v), R"({"nan":null,"inf":null})");
}

TEST(JsonSerialize, LeavesEscapeAndFormat)
{
    // The streaming writers (stats, sampler, chrome trace) share these.
    EXPECT_EQ(json::quote("plain"), R"("plain")");
    EXPECT_EQ(json::quote("a\"b\\c"), R"("a\"b\\c")");
    EXPECT_EQ(json::quote("x\ny"), R"("x\ny")");
    EXPECT_EQ(json::quote(std::string(1, '\x01')), R"("\u0001")");
    EXPECT_EQ(json::number(2), "2");
    EXPECT_EQ(json::number(2.5), "2.5");
    EXPECT_EQ(json::number(std::nan("")), "null");
    EXPECT_EQ(json::number(HUGE_VAL), "null");
    EXPECT_EQ(json::serialize(Value("a\"b")), json::quote("a\"b"));
}

TEST(JsonParseDeathTest, RejectsMalformedInput)
{
    EXPECT_DEATH(json::parse("{\"a\":1} extra", "doc"),
                 "trailing garbage");
    EXPECT_DEATH(json::parse("{\"a\":1,\"a\":2}", "doc"),
                 "duplicate object key");
    EXPECT_DEATH(json::parse("{\"a\":}", "doc"), "doc:");
    EXPECT_DEATH(json::parse("[1,]", "doc"), "doc:");
    EXPECT_DEATH(json::parse("", "doc"), "doc:");
    EXPECT_DEATH(json::parse("tru", "doc"), "doc:");
    EXPECT_DEATH(json::parse("\"unterminated", "doc"), "doc:");
}

TEST(JsonAccessorsDeathTest, TypeMismatchesAreFatal)
{
    Value doc = json::parse(R"({"s":"x","n":1.5,"i":-1})", "doc");
    EXPECT_DEATH(doc.find("s")->asNumber("field s"),
                 "field s: expected number, got string");
    EXPECT_DEATH(doc.find("n")->asBool("field n"),
                 "field n: expected boolean, got number");
    EXPECT_DEATH(doc.find("n")->asUnsigned("field n", 100),
                 "nonnegative integer");
    EXPECT_DEATH(doc.find("i")->asUnsigned("field i", 100),
                 "nonnegative integer");
    Value big = json::parse("4096", "doc");
    EXPECT_DEATH(big.asUnsigned("field", 1024), "exceeds the maximum");
}

TEST(JsonValue, FindOnMissingKeyIsNull)
{
    Value doc = json::parse(R"({"a":1})", "doc");
    EXPECT_EQ(doc.find("b"), nullptr);
    EXPECT_NE(doc.find("a"), nullptr);
    EXPECT_EQ(doc.size(), 1u);
}
