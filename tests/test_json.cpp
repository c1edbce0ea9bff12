// JsonWriter hardening: escaping, non-finite doubles, nesting/commas.
#include "exp/json.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "json_check.hpp"

using espread::exp::JsonWriter;
using espread::testing::is_valid_json;

namespace {

TEST(JsonWriter, EscapesQuotesAndBackslashes) {
    JsonWriter j;
    j.begin_object();
    j.key("path").value("C:\\tmp\\\"x\"");
    j.end_object();
    EXPECT_EQ(j.str(), R"({"path":"C:\\tmp\\\"x\""})");
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, EscapesWhitespaceControls) {
    JsonWriter j;
    j.begin_object();
    j.key("s").value("a\nb\rc\td");
    j.end_object();
    EXPECT_EQ(j.str(), "{\"s\":\"a\\nb\\rc\\td\"}");
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, EscapesOtherControlCharsAsUnicode) {
    JsonWriter j;
    std::string s;
    s += '\x01';
    s += '\x1f';
    j.begin_object();
    j.key("s").value(s);
    j.end_object();
    EXPECT_EQ(j.str(), "{\"s\":\"\\u0001\\u001f\"}");
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, EscapedKeysStayValid) {
    JsonWriter j;
    j.begin_object();
    j.key("weird \"key\"\n").value(std::uint64_t{1});
    j.end_object();
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    JsonWriter j;
    j.begin_array();
    j.value(std::numeric_limits<double>::quiet_NaN());
    j.value(std::numeric_limits<double>::infinity());
    j.value(-std::numeric_limits<double>::infinity());
    j.value(1.5);
    j.end_array();
    EXPECT_EQ(j.str(), "[null,null,null,1.5]");
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, DoublesRoundTripExactly) {
    JsonWriter j;
    j.value(0.1);
    const double back = std::stod(j.str());
    EXPECT_EQ(back, 0.1);
}

TEST(JsonWriter, NestedContainersAndCommas) {
    JsonWriter j;
    j.begin_object();
    j.key("a").begin_array();
    j.value(std::uint64_t{1}).value(std::uint64_t{2});
    j.begin_object();
    j.key("b").value(true);
    j.end_object();
    j.end_array();
    j.key("d").value(std::int64_t{-3});
    j.end_object();
    EXPECT_EQ(j.str(), R"({"a":[1,2,{"b":true}],"d":-3})");
    EXPECT_TRUE(is_valid_json(j.str()));
}

TEST(JsonWriter, EmptyContainers) {
    JsonWriter j;
    j.begin_object();
    j.key("o").begin_object().end_object();
    j.key("a").begin_array().end_array();
    j.end_object();
    EXPECT_EQ(j.str(), R"({"o":{},"a":[]})");
    EXPECT_TRUE(is_valid_json(j.str()));
}

// The validator itself has to reject garbage, or the tests above prove
// nothing.
TEST(JsonCheck, RejectsMalformedInput) {
    EXPECT_FALSE(is_valid_json(""));
    EXPECT_FALSE(is_valid_json("{"));
    EXPECT_FALSE(is_valid_json("{\"a\":}"));
    EXPECT_FALSE(is_valid_json("[1,]"));
    EXPECT_FALSE(is_valid_json("{\"a\":1}extra"));
    EXPECT_FALSE(is_valid_json("\"unterminated"));
    EXPECT_FALSE(is_valid_json("\"raw\ncontrol\""));
    EXPECT_FALSE(is_valid_json("nul"));
    EXPECT_FALSE(is_valid_json("1."));
    EXPECT_TRUE(is_valid_json("  {\"a\": [1, 2.5e-3, \"x\"]}  "));
}

}  // namespace
