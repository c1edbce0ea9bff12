#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "internal.hpp"

namespace espread::lint {

namespace internal {

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
    return s.substr(b, e - b);
}

bool contains_token(const std::string& hay, const std::string& needle) {
    std::size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !ident_char(hay[pos - 1]);
        const std::size_t end = pos + needle.size();
        const bool right_ok = end == hay.size() || !ident_char(hay[end]);
        if (left_ok && right_ok) return true;
        pos += 1;
    }
    return false;
}

bool path_has_prefix(const std::string& path,
                     const std::vector<std::string>& prefixes) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& p) {
                           return path.rfind(p, 0) == 0;
                       });
}

namespace {

/// Token followed (after optional whitespace) by '('.
bool contains_call(const std::string& hay, const std::string& name) {
    std::size_t pos = 0;
    while ((pos = hay.find(name, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !ident_char(hay[pos - 1]);
        std::size_t end = pos + name.size();
        while (end < hay.size() &&
               std::isspace(static_cast<unsigned char>(hay[end])) != 0) {
            ++end;
        }
        if (left_ok && end < hay.size() && hay[end] == '(') return true;
        pos += 1;
    }
    return false;
}

// ---- comment/literal stripping --------------------------------------------

Stripped strip(const std::string& content) {
    enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
    Stripped out;
    std::string code_line;
    std::string comment_line;
    St st = St::kCode;
    std::string raw_end;  // ")delim\"" terminator of the active raw string
    StringLit lit;        // the string literal currently being collected

    const std::size_t n = content.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = content[i];
        if (c == '\n') {
            out.code.push_back(code_line);
            out.comment.push_back(comment_line);
            code_line.clear();
            comment_line.clear();
            if (st == St::kLine) st = St::kCode;
            continue;
        }
        switch (st) {
            case St::kCode: {
                const char next = i + 1 < n ? content[i + 1] : '\0';
                if (c == '/' && next == '/') {
                    st = St::kLine;
                    ++i;
                } else if (c == '/' && next == '*') {
                    st = St::kBlock;
                    ++i;
                } else if (c == '"') {
                    // Raw string?  The prefix (R, u8R, uR, UR, LR) sits at
                    // the end of the code accumulated so far.
                    bool raw = false;
                    if (!code_line.empty() && code_line.back() == 'R') {
                        const std::size_t len = code_line.size();
                        raw = len == 1 || !ident_char(code_line[len - 2]) ||
                              (len >= 2 && (code_line[len - 2] == 'u' ||
                                            code_line[len - 2] == 'U' ||
                                            code_line[len - 2] == 'L' ||
                                            code_line[len - 2] == '8'));
                    }
                    lit = StringLit{out.code.size(), ""};
                    if (raw) {
                        std::string delim;
                        std::size_t j = i + 1;
                        while (j < n && content[j] != '(') delim += content[j++];
                        raw_end = ")" + delim + "\"";
                        i = j;  // consume up to and including '('
                        st = St::kRaw;
                    } else {
                        st = St::kStr;
                    }
                    code_line += ' ';
                } else if (c == '\'') {
                    // Distinguish a char literal from a digit separator
                    // (1'000'000): after a digit, ' is a separator.
                    if (!code_line.empty() &&
                        std::isdigit(static_cast<unsigned char>(
                            code_line.back())) != 0) {
                        code_line += ' ';
                    } else {
                        st = St::kChar;
                        code_line += ' ';
                    }
                } else {
                    code_line += c;
                }
                break;
            }
            case St::kLine:
                comment_line += c;
                break;
            case St::kBlock:
                if (c == '*' && i + 1 < n && content[i + 1] == '/') {
                    st = St::kCode;
                    ++i;
                } else {
                    comment_line += c;
                }
                break;
            case St::kStr:
                if (c == '\\') {
                    // Keep the escaped character verbatim (good enough for
                    // the contract names, which never use escapes).
                    ++i;
                    if (i < n && content[i] != '\n') lit.text += content[i];
                } else if (c == '"') {
                    st = St::kCode;
                    out.strings.push_back(lit);
                } else {
                    lit.text += c;
                }
                break;
            case St::kChar:
                if (c == '\\') {
                    ++i;
                } else if (c == '\'') {
                    st = St::kCode;
                }
                break;
            case St::kRaw:
                if (content.compare(i, raw_end.size(), raw_end) == 0) {
                    i += raw_end.size() - 1;
                    st = St::kCode;
                    out.strings.push_back(lit);
                } else {
                    lit.text += c;
                }
                break;
        }
    }
    out.code.push_back(code_line);
    out.comment.push_back(comment_line);
    return out;
}

// ---- suppressions ----------------------------------------------------------

constexpr const char kMarker[] = "espread-lint:";

Suppressions parse_suppressions(const std::string& path, const Stripped& s) {
    Suppressions out;
    for (std::size_t i = 0; i < s.comment.size(); ++i) {
        const std::string& comment = s.comment[i];
        const std::size_t m = comment.find(kMarker);
        if (m == std::string::npos) continue;
        const std::size_t line_no = i + 1;
        std::string rest = trim(comment.substr(m + sizeof(kMarker) - 1));
        auto bad = [&](const std::string& why) {
            out.malformed.push_back(
                {path, line_no, "D0", "malformed suppression: " + why});
        };
        if (rest.rfind("allow(", 0) != 0) {
            bad("expected `allow(<rule-ids>) <reason>` after `espread-lint:`");
            continue;
        }
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
            bad("unterminated allow(...)");
            continue;
        }
        const std::string ids_text = rest.substr(6, close - 6);
        const std::string reason = trim(rest.substr(close + 1));
        std::set<std::string> ids;
        std::stringstream ss(ids_text);
        std::string id;
        bool ids_ok = !ids_text.empty();
        while (std::getline(ss, id, ',')) {
            id = trim(id);
            if (!known_rule(id)) {
                bad("unknown rule id '" + id + "'");
                ids_ok = false;
                break;
            }
            ids.insert(id);
        }
        if (!ids_ok) {
            if (ids_text.empty()) bad("empty rule list in allow()");
            continue;
        }
        if (reason.empty()) {
            bad("suppression requires a reason string after allow(" +
                ids_text + ")");
            continue;  // a reason-less suppression does not take effect
        }
        // Trailing comment: applies to its own line.  Comment-only line:
        // applies to the next line that contains code.
        std::size_t target = i;
        if (trim(s.code[i]).empty()) {
            target = i + 1;
            while (target < s.code.size() && trim(s.code[target]).empty()) {
                ++target;
            }
        }
        out.allow[target].insert(ids.begin(), ids.end());
    }
    return out;
}

/// Emits a token-rule finding unless a suppression on its line names the
/// rule.
class Emitter {
public:
    Emitter(const FileScan& f, std::vector<Diagnostic>& out)
        : f_(f), out_(out) {}

    void emit(const char* rule, std::size_t line_idx,
              const std::string& message) {
        if (!f_.sup.mutes(line_idx, rule)) {
            out_.push_back({f_.path, line_idx + 1, rule, message});
        }
    }

private:
    const FileScan& f_;
    std::vector<Diagnostic>& out_;
};

// ---- D1: entropy / time sources -------------------------------------------

void check_d1(const Stripped& s, Emitter& e) {
    // The std::chrono clocks are matched by type name, not by `::now`, so
    // an alias (`using clock = std::chrono::steady_clock;`) is caught at
    // its declaration.
    static const char* kSubstrings[] = {
        "std::random_device", "random_device",
        "steady_clock",       "system_clock",
        "high_resolution_clock", "gettimeofday",
    };
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        for (const char* pat : kSubstrings) {
            if (contains_token(line, pat)) {
                e.emit("D1", i,
                       std::string("nondeterministic source '") + pat +
                           "': simulations must derive all entropy and "
                           "timing from the seeded sim::Rng / sim clock");
                break;
            }
        }
        for (const char* fn : {"rand", "srand", "clock"}) {
            if (contains_call(line, fn)) {
                e.emit("D1", i,
                       std::string("call to '") + fn +
                           "()': use the seeded sim::Rng instead");
                break;
            }
        }
        // time(nullptr) / time(NULL) / time(0) — the classic seed source.
        std::size_t pos = 0;
        while ((pos = line.find("time", pos)) != std::string::npos) {
            const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
            std::size_t j = pos + 4;
            while (j < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[j])) != 0) {
                ++j;
            }
            if (left_ok && j < line.size() && line[j] == '(') {
                std::size_t close = line.find(')', j);
                if (close != std::string::npos) {
                    const std::string arg = trim(line.substr(j + 1, close - j - 1));
                    if (arg == "nullptr" || arg == "NULL" || arg == "0") {
                        e.emit("D1", i,
                               "wall-clock seed 'time(" + arg +
                                   ")': seeds must be explicit and "
                                   "reproducible");
                        break;
                    }
                }
            }
            pos += 4;
        }
    }
}

// ---- D2: hash-ordered containers in result-producing code ------------------

void check_d2(const std::string& path, const Stripped& s, Emitter& e) {
    static const std::vector<std::string> kOrderedOutputPaths = {
        "src/engine/", "src/exp/", "src/obs/", "src/protocol/report"};
    if (!path_has_prefix(path, kOrderedOutputPaths)) return;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        for (const char* pat : {"unordered_map", "unordered_set",
                                "unordered_multimap", "unordered_multiset"}) {
            if (contains_token(s.code[i], pat)) {
                e.emit("D2", i,
                       std::string("'std::") + pat +
                           "' in result-producing code: hash order leaks "
                           "into merged/serialized output; use std::map or "
                           "a sorted vector");
                break;
            }
        }
    }
}

// ---- D4: gated trace/metrics emission --------------------------------------

void check_d4(const Stripped& s, Emitter& e) {
    // How many preceding lines are searched for a null-gate.
    constexpr std::size_t kGateWindow = 12;
    // "->observe" covers the telemetry plane's observe_* family
    // (TelemetrySlab::observe_windows etc.): the prefix may continue with
    // identifier characters before the call parens.
    static const char* kSinkCalls[] = {"->record", "->observe"};
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        for (const char* call : kSinkCalls) {
            const std::size_t pos = line.find(call);
            if (pos == std::string::npos) continue;
            // Must be a call (allowing a method-name continuation of the
            // prefix, so "->observe" matches "->observe_loss_run(").
            std::size_t after = pos + std::string(call).size();
            while (after < line.size() && ident_char(line[after])) {
                ++after;
            }
            while (after < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[after])) != 0) {
                ++after;
            }
            if (after >= line.size() || line[after] != '(') continue;
            // Receiver expression: identifier chars and '.' walking left
            // from the arrow (covers `trace_`, `cfg.trace`, `sink`).
            std::size_t b = pos;
            while (b > 0 && (ident_char(line[b - 1]) || line[b - 1] == '.')) {
                --b;
            }
            const std::string receiver = line.substr(b, pos - b);
            if (receiver.empty()) continue;
            // A null-gate on the same expression within the preceding
            // window (or earlier on the same line) keeps the site legal.
            bool gated = false;
            const std::size_t first = i >= kGateWindow ? i - kGateWindow : 0;
            for (std::size_t j = first; j <= i && !gated; ++j) {
                const std::string& g = s.code[j];
                const std::size_t if_pos = g.find("if");
                if (if_pos == std::string::npos) continue;
                if (j == i && if_pos > b) continue;  // gate must precede call
                if (g.find(receiver, if_pos) != std::string::npos &&
                    contains_token(g, "if")) {
                    gated = true;
                }
            }
            if (!gated) {
                e.emit("D4", i,
                       "direct sink call '" + receiver + call +
                           "(...)' without a null-gate on '" + receiver +
                           "': emission sites must be zero-cost when "
                           "observability is off (gate with `if (" +
                           receiver + ")` or use the gated helper)");
            }
        }
    }
}

// ---- D5: ownership / include hygiene in library targets --------------------

void check_d5(const std::string& path, const Stripped& s, Emitter& e) {
    if (path.rfind("src/", 0) != 0) return;  // library targets only
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        if (line.find("#include") != std::string::npos &&
            line.find("<iostream>") != std::string::npos) {
            e.emit("D5", i,
                   "'#include <iostream>' in a library target: global "
                   "stream objects drag in static initialization and "
                   "stdio; format into strings or take an std::ostream&");
        }
        std::size_t pos = 0;
        while ((pos = line.find("new", pos)) != std::string::npos) {
            const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
            const std::size_t end = pos + 3;
            const bool right_ok = end >= line.size() || !ident_char(line[end]);
            if (left_ok && right_ok) {
                e.emit("D5", i,
                       "raw 'new' expression: library code owns memory via "
                       "containers and std::make_unique");
                break;
            }
            pos += 3;
        }
        pos = 0;
        while ((pos = line.find("delete", pos)) != std::string::npos) {
            const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
            const std::size_t end = pos + 6;
            const bool right_ok = end >= line.size() || !ident_char(line[end]);
            // `= delete;` declarations are idiomatic and exempt.
            std::size_t before = pos;
            while (before > 0 &&
                   std::isspace(static_cast<unsigned char>(line[before - 1])) !=
                       0) {
                --before;
            }
            const bool deleted_fn = before > 0 && line[before - 1] == '=';
            if (left_ok && right_ok && !deleted_fn) {
                e.emit("D5", i,
                       "raw 'delete' expression: library code owns memory "
                       "via containers and std::make_unique");
                break;
            }
            pos += 6;
        }
    }
}

}  // namespace

FileScan scan_source(const std::string& path, const std::string& content) {
    FileScan f{path, strip(content), {}};
    f.sup = parse_suppressions(path, f.s);
    return f;
}

void check_token_rules(const FileScan& f, std::vector<Diagnostic>& out) {
    out.insert(out.end(), f.sup.malformed.begin(), f.sup.malformed.end());
    Emitter e(f, out);
    check_d1(f.s, e);
    check_d2(f.path, f.s, e);
    check_d4(f.s, e);
    check_d5(f.path, f.s, e);
}

}  // namespace internal

// ---- public API ------------------------------------------------------------

namespace {

void sort_diagnostics(std::vector<Diagnostic>& out) {
    std::sort(out.begin(), out.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  if (a.path != b.path) return a.path < b.path;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
}

}  // namespace

const std::vector<RuleInfo>& rules() {
    static const std::vector<RuleInfo> kRules = {
        {"D0",
         "malformed espread-lint suppression (missing reason or unknown rule)"},
        {"D1", "nondeterministic entropy or time source"},
        {"D2", "hash-ordered container in result-producing code"},
        {"D4", "ungated trace/metrics sink call"},
        {"D5", "raw new/delete or <iostream> in a library target"},
        {"C1", "magic or colliding RNG split lane (registry: k<Family>Lane<Name>)"},
        {"C4",
         "bench claim-gate key not emitted by the gated bench or missing "
         "from the baselines, or CI --slo spec naming an unknown signal"},
        {"C5", "dead registry lane, gate key or baseline floor"},
    };
    return kRules;
}

bool known_rule(const std::string& id) {
    return std::any_of(rules().begin(), rules().end(),
                       [&](const RuleInfo& r) { return id == r.id; });
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
    std::vector<Diagnostic> out;
    internal::check_token_rules(internal::scan_source(path, content), out);
    sort_diagnostics(out);
    return out;
}

std::vector<Diagnostic> scan_tree(const std::string& root) {
    namespace fs = std::filesystem;
    static const std::set<std::string> kExts = {
        ".cpp", ".cc", ".cxx", ".hpp", ".hxx", ".h", ".ipp"};
    std::vector<std::string> files;
    for (const char* dir : {"src", "bench", "tests", "tools", "examples"}) {
        if (!fs::is_directory(fs::path(root) / dir)) continue;
        for (const auto& entry :
             fs::recursive_directory_iterator(fs::path(root) / dir)) {
            if (!entry.is_regular_file() ||
                kExts.count(entry.path().extension().string()) == 0) {
                continue;
            }
            std::string path = fs::relative(entry.path(), root).generic_string();
            // Seeded violations, linted by test_lint one fixture at a time.
            if (path.rfind("tests/lint_fixtures/", 0) == 0) continue;
            files.push_back(std::move(path));
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<Diagnostic> out;
    std::vector<internal::FileScan> scans;
    scans.reserve(files.size());
    for (const std::string& path : files) {
        std::ifstream in(fs::path(root) / path, std::ios::binary);
        if (!in) {
            out.push_back({path, 0, "D0", "cannot read file"});
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        scans.push_back(internal::scan_source(path, buf.str()));
        internal::check_token_rules(scans.back(), out);
    }
    internal::check_contracts(root, scans, out);
    sort_diagnostics(out);
    return out;
}

std::string format_gcc(const Diagnostic& d) {
    return d.path + ":" + std::to_string(d.line) + ": error: " + d.message +
           " [" + d.rule + "]";
}

}  // namespace espread::lint
