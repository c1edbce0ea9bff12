// Deterministic mutation harness for the frame-trace reader, modelled on
// test_codec_fuzz.  Seeded inputs start from valid traces written by
// write_trace and are then byte-mutated, truncated, spliced with numbers
// past 2^63, or given random lines.  Every input runs through read_trace
// and, when it parses, infer_gop_pattern.  The invariants are
//   (1) each call returns or throws std::invalid_argument, nothing else,
//       and never crashes or reads out of bounds (ASan/UBSan CI job);
//   (2) an accepted trace has one frame per non-blank line, re-indexed
//       0..n-1 with positive sizes and GOPs that restart at every I;
//   (3) the corpus is a pure function of the seed.
#include "media/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "media/trace.hpp"
#include "sim/rng.hpp"

namespace {

using espread::media::Frame;
using espread::media::FrameType;
using espread::sim::Rng;

const char* const kMovies[] = {"Jurassic Park", "Terminator", "Star Wars"};

// Frame numbers and sizes a signed 64-bit read cannot hold, or only just.
const char* const kHugeNumbers[] = {
    "9223372036854775807",  "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "18446744073709551616",
    "99999999999999999999999999999"};

// Bytes a mutation writes: the format's own alphabet plus arbitrary ones.
char random_byte(Rng& r) {
    static const char kAlphabet[] = "0123456789IPBJX #\n\t\r-+.e";
    if (r.bernoulli(0.8)) {
        return kAlphabet[r.uniform_int(0, sizeof(kAlphabet) - 2)];
    }
    return static_cast<char>(r.uniform_int(0, 255));
}

std::string valid_trace(Rng& r) {
    espread::media::TraceGenerator gen{
        espread::media::movie_stats(kMovies[r.uniform_int(0, 2)]),
        r.next_u64()};
    std::ostringstream out;
    espread::media::write_trace(out, gen.generate(r.uniform_int(1, 4)));
    return out.str();
}

/// Replaces the n-th whitespace-separated number token with `number`.
std::string splice_number(std::string text, Rng& r, const std::string& number) {
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const bool digit = text[i] >= '0' && text[i] <= '9';
        const bool boundary = i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n';
        if (digit && boundary) starts.push_back(i);
    }
    if (starts.empty()) return text;
    const std::size_t at = starts[r.uniform_int(0, starts.size() - 1)];
    std::size_t end = at;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
    return text.replace(at, end - at, number);
}

std::string mutate(std::string text, Rng& r) {
    switch (r.uniform_int(0, 4)) {
        case 0:
            return text;  // valid trace, must parse
        case 1: {         // byte mutations
            const std::uint64_t edits = r.uniform_int(1, 6);
            for (std::uint64_t i = 0; i < edits && !text.empty(); ++i) {
                text[r.uniform_int(0, text.size() - 1)] = random_byte(r);
            }
            return text;
        }
        case 2:  // truncation, possibly mid-number or to empty
            text.resize(r.uniform_int(0, text.size()));
            return text;
        case 3:  // a number past (or at) the 64-bit limits
            return splice_number(std::move(text), r,
                                 kHugeNumbers[r.uniform_int(0, 5)]);
        default: {  // random lines
            std::string line;
            const std::uint64_t len = r.uniform_int(0, 24);
            for (std::uint64_t i = 0; i < len; ++i) {
                const char c = random_byte(r);
                line.push_back(c == '\n' ? ' ' : c);
            }
            text.insert(r.uniform_int(0, text.size()), line + "\n");
            return text;
        }
    }
}

/// Lines read_trace must turn into frames: those with a token left once
/// the comment is cut.
std::size_t frame_lines(const std::string& text) {
    std::istringstream in{text};
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line)) {
        line.erase(std::min(line.find('#'), line.size()));
        std::istringstream ls{line};
        std::string token;
        if (ls >> token) ++n;
    }
    return n;
}

struct Tally {
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    std::size_t patterns = 0;
};

void check_one(const std::string& text, Tally& tally) {
    std::vector<Frame> frames;
    try {
        std::istringstream in{text};
        frames = espread::media::read_trace(in);
    } catch (const std::invalid_argument&) {
        ++tally.rejected;
        return;
    } catch (...) {
        FAIL() << "read_trace threw something other than invalid_argument";
    }
    ++tally.parsed;
    ASSERT_EQ(frames.size(), frame_lines(text)) << "a frame line was dropped";
    for (std::size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(frames[i].index, i);
        ASSERT_GT(frames[i].size_bits, 0u);
        if (i > 0) {
            const bool restart = frames[i].type == FrameType::kI;
            ASSERT_EQ(frames[i].gop, frames[i - 1].gop + (restart ? 1 : 0));
            ASSERT_EQ(frames[i].pos_in_gop,
                      restart ? 0 : frames[i - 1].pos_in_gop + 1);
        }
    }
    try {
        (void)espread::media::infer_gop_pattern(frames);
        ++tally.patterns;
    } catch (const std::invalid_argument&) {
    } catch (...) {
        FAIL() << "infer_gop_pattern threw something other than "
                  "invalid_argument";
    }
}

Tally run_corpus(std::uint64_t seed, std::size_t n) {
    Rng r{seed};
    Tally tally;
    for (std::size_t i = 0; i < n; ++i) {
        check_one(mutate(valid_trace(r), r), tally);
        if (::testing::Test::HasFatalFailure()) break;
    }
    return tally;
}

TEST(TraceFuzz, EveryInputParsesOrThrowsInvalidArgument) {
    const Tally t = run_corpus(0x7AC3F17E, 20000);
    // Both outcomes must be well exercised, or the mutations are too
    // gentle (or too destructive) to test anything.
    EXPECT_GT(t.parsed, 4000u);
    EXPECT_GT(t.rejected, 4000u);
    EXPECT_GT(t.patterns, 4000u);
}

TEST(TraceFuzz, CorpusIsAPureFunctionOfTheSeed) {
    const Tally a = run_corpus(99, 2000);
    const Tally b = run_corpus(99, 2000);
    EXPECT_EQ(a.parsed, b.parsed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.patterns, b.patterns);
}

// Regression: a frame number past 2^63 used to fail the integer read and
// drop the whole line as if it were blank.
TEST(TraceFuzz, OverflowingFrameNumberIsRejectedNotSkipped) {
    for (const char* number :
         {"9223372036854775808", "-9223372036854775809",
          "18446744073709551616", "99999999999999999999999999999"}) {
        std::istringstream in{std::string("0 I 100\n") + number + " B 10\n"};
        EXPECT_THROW(espread::media::read_trace(in), std::invalid_argument)
            << number;
    }
}

}  // namespace
