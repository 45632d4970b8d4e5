// Unit tests for the JSON substrate: parsing, errors, round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "json/json.hpp"
#include "util/error.hpp"

namespace bbsim::json {
namespace {

using util::NotFoundError;
using util::ParseError;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerated) {
  const Value v = parse("  {\n \"a\" : [ 1 , 2 ] }\t");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a": {"b": [1, {"c": "d"}]}})");
  EXPECT_EQ(v.at("a").at("b").as_array()[1].at("c").as_string(), "d");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(parse(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(parse(R"("中")").as_string(), "\xe4\xb8\xad");      // 中
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // 😀
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    parse("{\n  \"a\": nulll\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(parse("[1] trailing"), ParseError);
  EXPECT_THROW(parse("'single'"), ParseError);
  EXPECT_THROW(parse("01x"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("\"bad\\q\""), ParseError);
  EXPECT_THROW(parse("\"ctrl\x01\""), ParseError);
}

TEST(JsonObject, PreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [k, _] : v.as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonObject, DuplicateKeysRejected) {
  // A duplicate key is almost always a hand-edited config mistake; since
  // silently letting the last value win hides it, the parser rejects it.
  EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), util::ParseError);
  // Object::set still overwrites programmatically.
  Object o;
  o.set("a", Value(1));
  o.set("a", Value(2));
  EXPECT_DOUBLE_EQ(o.at("a").as_number(), 2.0);
  EXPECT_EQ(o.size(), 1u);
}

TEST(JsonObject, AtThrowsNotFound) {
  const Value v = parse("{}");
  EXPECT_THROW(v.at("missing"), NotFoundError);
}

TEST(JsonValue, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), ParseError);
  EXPECT_THROW(v.as_string(), ParseError);
  EXPECT_THROW(parse("1.5").as_int(), ParseError);
}

TEST(JsonValue, LenientGetters) {
  const Value v = parse(R"({"n": 5, "s": "x", "b": true})");
  EXPECT_DOUBLE_EQ(v.get_number("n", -1), 5.0);
  EXPECT_DOUBLE_EQ(v.get_number("missing", -1), -1.0);
  EXPECT_DOUBLE_EQ(v.get_number("s", -1), -1.0);  // wrong type -> fallback
  EXPECT_EQ(v.get_string("s", "d"), "x");
  EXPECT_EQ(v.get_string("n", "d"), "d");
  EXPECT_TRUE(v.get_bool("b", false));
  EXPECT_EQ(v.get_int("n", 0), 5);
}

TEST(JsonValue, EqualityIsDeep) {
  EXPECT_EQ(parse(R"({"a":[1,2],"b":"x"})"), parse(R"({ "a" : [1, 2], "b": "x" })"));
  EXPECT_NE(parse("[1,2]"), parse("[2,1]"));
  EXPECT_NE(parse(R"({"a":1})"), parse(R"({"b":1})"));
}

TEST(JsonValue, CopySemantics) {
  Value a = parse(R"({"k": [1, 2, 3]})");
  Value b = a;
  b.as_object()["k"].as_array().push_back(Value(4.0));
  EXPECT_EQ(a.at("k").as_array().size(), 3u);
  EXPECT_EQ(b.at("k").as_array().size(), 4u);
}

TEST(JsonDump, RoundTripCompact) {
  const std::string doc = R"({"a":[1,2.5,"s",null,true],"b":{"c":-3}})";
  EXPECT_EQ(parse(parse(doc).dump()), parse(doc));
}

TEST(JsonDump, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Value(42.0).dump(), "42");
  EXPECT_EQ(Value(-1.0).dump(), "-1");
}

TEST(JsonDump, StringsEscaped) {
  EXPECT_EQ(Value("a\"b\n").dump(), R"("a\"b\n")");
}

TEST(JsonDump, PrettyPrintIndents) {
  Object o;
  o.set("a", Value(1.0));
  const std::string pretty = Value(std::move(o)).dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonFile, WriteAndParseFile) {
  const std::string path = ::testing::TempDir() + "/bbsim_json_test.json";
  const Value original = parse(R"({"x": [1, {"y": "z"}]})");
  write_file(path, original);
  EXPECT_EQ(parse_file(path), original);
  std::remove(path.c_str());
}

TEST(JsonFile, MissingFileThrows) {
  EXPECT_THROW(parse_file("/nonexistent/path.json"), ParseError);
}

}  // namespace
}  // namespace bbsim::json

namespace json_edge_tests {

using namespace bbsim::json;
using bbsim::util::ParseError;

TEST(JsonEdge, DeepNestingRoundTrips) {
  std::string doc;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) doc += "[";
  doc += "42";
  for (int i = 0; i < depth; ++i) doc += "]";
  Value v = parse(doc);
  for (int i = 0; i < depth; ++i) {
    ASSERT_EQ(v.as_array().size(), 1u);
    v = v.as_array()[0];
  }
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
}

TEST(JsonEdge, NestingPastTheLimitThrowsParseErrorWithPosition) {
  // Exactly kMaxDepth levels parse; one more fails with the limit and the
  // position of the first container past it, not a stack overflow.
  const std::string at_limit = std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_NO_THROW(parse(at_limit));
  try {
    parse(std::string(200000, '['));
    FAIL() << "200,000 nested arrays must not parse";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than 512"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1, column 513"), std::string::npos) << what;
  }
}

TEST(JsonEdge, NumberPrecisionSurvivesRoundTrip) {
  for (const double x : {1e-300, 1e300, 0.1, 1.0 / 3.0, 6.5e9, 36.80e9}) {
    EXPECT_DOUBLE_EQ(parse(Value(x).dump()).as_number(), x) << x;
  }
}

TEST(JsonEdge, LargeArrayParses) {
  std::string doc = "[";
  for (int i = 0; i < 10000; ++i) {
    if (i) doc += ",";
    doc += std::to_string(i);
  }
  doc += "]";
  const Value v = parse(doc);
  EXPECT_EQ(v.as_array().size(), 10000u);
  EXPECT_DOUBLE_EQ(v.as_array()[9999].as_number(), 9999.0);
}

TEST(JsonEdge, SurrogatePairDecodes) {
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // 😀
  EXPECT_THROW(parse(R"("\ud83d")"), ParseError);          // lone high surrogate
  EXPECT_THROW(parse(R"("\ud83dA")"), ParseError);    // bad low surrogate
}

TEST(JsonEdge, MoveSemanticsLeaveSourceReusable) {
  Value a = parse(R"({"k": [1, 2]})");
  Value b = std::move(a);
  EXPECT_EQ(b.at("k").as_array().size(), 2u);
  a = parse("[3]");  // reassignment after move is fine
  EXPECT_EQ(a.as_array().size(), 1u);
}

}  // namespace json_edge_tests
