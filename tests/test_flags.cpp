// The command-line flag parser (src/exp/flags): both value forms, full-
// token parsing, inclusive ranges, switches, repeatable and positional
// arguments.  Every case runs in-process; tests/test_cli.cpp drives the
// binaries themselves, and test_runner checks the Monte-Carlo caps.
#include "exp/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using espread::exp::Count;
using espread::exp::Flag;
using espread::exp::Number;
using espread::exp::Switch;
using espread::exp::Text;
using espread::exp::TextList;
using espread::exp::parse_count;
using espread::exp::parse_flags;
using espread::exp::parse_number;

struct Parsed {
    std::size_t count = 7;
    double number = 0.5;
    std::string text = "default";
    std::vector<std::string> list;
    bool on = false;
};

std::string parse(const std::vector<std::string>& args, Parsed& p,
                  std::vector<std::string>* positionals = nullptr) {
    const Flag flags[] = {
        {"--count", Count{&p.count, 1, 100}},
        {"--number", Number{&p.number, 0.0, 1.0}},
        {"--text", Text{&p.text}},
        {"--list", TextList{&p.list}},
        {"--on", Switch{&p.on}},
    };
    return parse_flags(args, flags, positionals);
}

TEST(Flags, AcceptsBothValueForms) {
    Parsed p;
    EXPECT_EQ(parse({"--count=12", "--number", "0.25", "--text", "a=b",
                     "--list=x", "--list", "y", "--on"},
                    p),
              "");
    EXPECT_EQ(p.count, 12u);
    EXPECT_EQ(p.number, 0.25);
    EXPECT_EQ(p.text, "a=b");
    EXPECT_EQ(p.list, (std::vector<std::string>{"x", "y"}));
    EXPECT_TRUE(p.on);
}

TEST(Flags, NoArgumentsKeepDefaults) {
    Parsed p;
    EXPECT_EQ(parse({}, p), "");
    EXPECT_EQ(p.count, 7u);
    EXPECT_EQ(p.text, "default");
    EXPECT_FALSE(p.on);
}

TEST(Flags, RangesAreInclusive) {
    Parsed p;
    EXPECT_EQ(parse({"--count=1", "--number=0"}, p), "");
    EXPECT_EQ(parse({"--count=100", "--number=1"}, p), "");
    EXPECT_EQ(p.count, 100u);
    EXPECT_EQ(p.number, 1.0);
    EXPECT_NE(parse({"--count=0"}, p), "");
    EXPECT_NE(parse({"--count=101"}, p), "");
    EXPECT_NE(parse({"--number=1.0001"}, p), "");
    EXPECT_EQ(p.count, 100u);  // a refused value leaves the destination alone
}

// Each malformed value is refused with a message that starts with the
// flag, whichever form carries it.
TEST(Flags, MalformedValuesNameTheFlag) {
    for (const char* flag : {"--count", "--number"}) {
        for (const char* bad : {"abc", "-3", "5x", " 3", "+3", "1e30", "nan",
                                "inf", "", "0x10", "3 "}) {
            for (const bool joined : {true, false}) {
                const std::vector<std::string> args =
                    joined ? std::vector<std::string>{std::string(flag) + "=" + bad}
                           : std::vector<std::string>{flag, bad};
                Parsed p;
                const std::string error = parse(args, p);
                EXPECT_EQ(error.find(flag), 0u)
                    << flag << " '" << bad << "' joined=" << joined << ": "
                    << error;
            }
        }
    }
}

TEST(Flags, StructuralErrorsNameTheArgument) {
    Parsed p;
    EXPECT_EQ(parse({"--bogus"}, p), "--bogus: unknown flag");
    EXPECT_EQ(parse({"--bogus=1"}, p), "--bogus: unknown flag");
    EXPECT_EQ(parse({"--count"}, p), "--count: needs a value");
    // A following flag is not taken as the value.
    EXPECT_EQ(parse({"--text", "--on"}, p), "--text: needs a value");
    EXPECT_EQ(parse({"--on=1"}, p), "--on: takes no value");
    EXPECT_EQ(parse({"--text="}, p), "--text: needs a non-empty value");
    EXPECT_EQ(parse({"--list="}, p), "--list: needs a non-empty value");
    EXPECT_EQ(parse({"stray"}, p), "'stray': unexpected argument");
    EXPECT_EQ(parse({"-h"}, p), "'-h': unexpected argument");
    EXPECT_EQ(parse({"--"}, p), "--: unknown flag");
}

TEST(Flags, PositionalsAreCollectedWhereTaken) {
    Parsed p;
    std::vector<std::string> positionals;
    EXPECT_EQ(parse({"a", "--count", "3", "b", "--on", "c"}, p, &positionals),
              "");
    EXPECT_EQ(positionals, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(p.count, 3u);
}

TEST(Flags, CountParsesTheWholeTokenOnly) {
    EXPECT_EQ(parse_count("0"), 0u);
    EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.0", "1e3",
                            "18446744073709551616", "0x1"}) {
        EXPECT_FALSE(parse_count(bad).has_value()) << bad;
    }
}

TEST(Flags, NumberParsesTheWholeTokenAndIsFinite) {
    EXPECT_EQ(parse_number("1.2e6"), 1.2e6);
    EXPECT_EQ(parse_number("-0.5"), -0.5);
    for (const char* bad : {"", "nan", "inf", "-inf", "1e999", "+1", " 1",
                            "1x", "0x1p3"}) {
        EXPECT_FALSE(parse_number(bad).has_value()) << bad;
    }
}

}  // namespace
