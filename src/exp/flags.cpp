#include "exp/flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace espread::exp {

namespace {

/// Stores `value` through the flag's destination; returns why it cannot,
/// or "".
std::string assign(const Flag& flag, std::string_view value) {
    const int len = static_cast<int>(value.size());
    char why[160];
    if (const auto* c = std::get_if<Count>(&flag.dest)) {
        const auto v = parse_count(value);
        if (v && *v >= c->lo && *v <= c->hi) {
            *c->dest = *v;
            return {};
        }
        std::snprintf(why, sizeof(why),
                      "'%.*s' is not a whole number in [%zu, %zu]", len,
                      value.data(), c->lo, c->hi);
        return why;
    }
    if (const auto* n = std::get_if<Number>(&flag.dest)) {
        const auto v = parse_number(value);
        if (v && *v >= n->lo && *v <= n->hi) {
            *n->dest = *v;
            return {};
        }
        std::snprintf(why, sizeof(why),
                      "'%.*s' is not a finite number in [%g, %g]", len,
                      value.data(), n->lo, n->hi);
        return why;
    }
    if (value.empty()) {
        return "needs a non-empty value";
    } else if (const auto* t = std::get_if<Text>(&flag.dest)) {
        *t->dest = value;
    } else {
        std::get<TextList>(flag.dest).dest->emplace_back(value);
    }
    return {};
}

}  // namespace

std::optional<std::size_t> parse_count(std::string_view s) {
    std::size_t v = 0;
    const auto [end, err] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (err != std::errc{} || end != s.data() + s.size()) return std::nullopt;
    return v;
}

std::optional<double> parse_number(std::string_view s) {
    double v = 0.0;
    const auto [end, err] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (err != std::errc{} || end != s.data() + s.size() || !std::isfinite(v)) {
        return std::nullopt;
    }
    return v;
}

std::string parse_flags(std::span<const std::string> args,
                        std::span<const Flag> flags,
                        std::vector<std::string>* positionals) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string_view arg = args[i];
        if (!arg.starts_with("--")) {
            if (positionals == nullptr) {
                return "'" + args[i] + "': unexpected argument";
            }
            positionals->push_back(args[i]);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string_view name = arg.substr(0, eq);
        const Flag* flag = nullptr;
        for (const Flag& f : flags) {
            if (f.name == name) flag = &f;
        }
        if (flag == nullptr) return std::string(name) + ": unknown flag";
        if (const auto* s = std::get_if<Switch>(&flag->dest)) {
            if (eq != std::string_view::npos) {
                return std::string(name) + ": takes no value";
            }
            *s->dest = true;
            continue;
        }
        std::string_view value;
        if (eq != std::string_view::npos) {
            value = arg.substr(eq + 1);
        } else if (i + 1 < args.size() && !args[i + 1].starts_with("--")) {
            value = args[++i];
        } else {
            return std::string(name) + ": needs a value";
        }
        if (std::string why = assign(*flag, value); !why.empty()) {
            return std::string(name) + ": " + why;
        }
    }
    return {};
}

void parse_flags_or_exit(int argc, const char* const* argv,
                         std::span<const Flag> flags,
                         std::vector<std::string>* positionals) {
    if (argc < 1) return;
    const std::vector<std::string> args(argv + 1, argv + argc);
    const std::string error = parse_flags(args, flags, positionals);
    if (error.empty()) return;
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    // Flags are parsed before any worker thread starts.
    std::exit(2);  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace espread::exp
