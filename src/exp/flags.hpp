// Command-line flags: one table per binary, one strict parser.
//
// A binary lists its flags as Flag rows and hands argv to parse_flags.
// Values come as `--name=value` or `--name value` and are read whole with
// std::from_chars: no blank, no sign, no trailing text.  A count or
// number must lie in its row's inclusive range, and a number must be
// finite.  An unknown flag, a missing or malformed value, a value on a
// switch and a positional argument where the binary takes none are
// errors whose message names the flag; binaries print it and exit 2
// (CONTRIBUTING.md "Command-line flags").  The target depends on nothing
// else in the repo, so the tools link it without the protocol stack.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace espread::exp {

// Caps on counts that start threads or size allocations: well above any
// value CI, the docs or the benches pass, low enough for one run to fit
// a shared machine.
inline constexpr std::size_t kMaxThreads = 256;  ///< one OS thread each
/// Each trial keeps its outcome (~20 KB with metrics) until the merge.
inline constexpr std::size_t kMaxTrials = 4096;
/// Engine session slots, ~150 B each: ~300 MB at the cap.
inline constexpr std::size_t kMaxSessions = std::size_t{1} << 21;
/// Simulated or timed windows: one report or latency sample each.
inline constexpr std::size_t kMaxWindows = std::size_t{1} << 20;

struct Count {  ///< a whole number in [lo, hi]
    std::size_t* dest;
    std::size_t lo = 0;
    std::size_t hi = std::numeric_limits<std::size_t>::max();
};
struct Number {  ///< a finite number in [lo, hi]
    double* dest;
    double lo;
    double hi;
};
struct Text { std::string* dest; };                ///< non-empty
struct TextList { std::vector<std::string>* dest; };  ///< repeatable, non-empty
struct Switch { bool* dest; };                     ///< no value; sets true

struct Flag {
    std::string_view name;  ///< with the leading "--"
    std::variant<Count, Number, Text, TextList, Switch> dest;
};

/// The whole of `s` as a count, or nullopt.
std::optional<std::size_t> parse_count(std::string_view s);
/// The whole of `s` as a finite number, or nullopt.
std::optional<double> parse_number(std::string_view s);

/// Parses `args` (argv without the program name) against `flags`.
/// Arguments not starting with "--" go to `*positionals`, or are an error
/// when it is null.  Returns "" on success, else a one-line message that
/// starts with the offending flag or argument.
std::string parse_flags(std::span<const std::string> args,
                        std::span<const Flag> flags,
                        std::vector<std::string>* positionals = nullptr);

/// parse_flags over argv[1..argc); on error prints "<program>: <message>"
/// to stderr and exits 2.
void parse_flags_or_exit(int argc, const char* const* argv,
                         std::span<const Flag> flags,
                         std::vector<std::string>* positionals = nullptr);

}  // namespace espread::exp
