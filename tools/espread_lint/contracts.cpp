// Cross-TU contract rules C1, C4 and C5: facts are mined from every
// stripped C++ source of the scan (`.split(<arg>)` call sites, registry
// lane and table declarations) and checked against the contract registry
// (src/sim/contracts.hpp) plus the external gate surfaces (the CI
// workflow, the frozen bench baselines):
//
//   C1  RNG split lanes: no magic `.split(<int>)` in src/ or bench/; every
//       lane ident resolves to a registry k<Family>Lane<Name> constant
//       used inside that family's path scope; no value collision within a
//       family; lanes are declared only in the registry.
//   C4  Gate surfaces: every key CI's perf_gate steps consume (--key=...
//       or the default) is registered, emitted by the gated bench, and
//       frozen in bench/baselines; every CI --slo spec names a registered
//       telemetry signal.
//   C5  Dead registry entries: lanes never split, gate keys never
//       consumed, baseline keys never gated.
//
// Name tables and wire tags need no scanner: the code indexes the
// registry tables directly (static_assert on each table's length), tags
// live in proto::WireType, and tests/test_contracts.cpp compares every
// table with the names real runs emit.  Suppressions
// (`// espread-lint: allow(C1) reason`) work exactly as for the token
// rules.  See DESIGN.md §14.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "internal.hpp"

namespace espread::lint {

namespace {

// The repo layout the rules check against, root-relative.
constexpr const char kRegistryPath[] = "src/sim/contracts.hpp";
constexpr const char kCiWorkflow[] = ".github/workflows/ci.yml";
constexpr const char kBaselines[] = "bench/baselines/BENCH_baseline.json";
constexpr const char kPerfGatePrefix[] = "tools/perf_gate/";
constexpr const char kBenchPrefix[] = "bench/";
constexpr const char kDefaultGateKey[] = "windows_per_second";
constexpr const char kSignalTable[] = "kTelemetrySignalNames";
constexpr const char kGateKeyTable[] = "kBenchGateKeys";

/// One entry per lane family `k<Family>Lane<Name>`: the path prefixes
/// inside which that family's lanes may be split.
struct LaneFamily {
    std::string family;
    std::vector<std::string> prefixes;
};

const std::vector<LaneFamily> kLaneFamilies = {
    {"Session", {"src/protocol/"}},
    {"Engine", {"src/engine/"}},
    {"Analysis", {"src/analysis/", "bench/"}},
};

using internal::contains_token;
using internal::FileScan;
using internal::ident_char;
using internal::path_has_prefix;
using internal::Stripped;
using internal::StringLit;
using internal::trim;

bool all_digits(const std::string& s) {
    return !s.empty() &&
           std::all_of(s.begin(), s.end(), [](char c) {
               return std::isdigit(static_cast<unsigned char>(c)) != 0;
           });
}

/// Last `::`-qualified component of an expression, or "" if it is not a
/// plain (possibly qualified) identifier.
std::string last_component(const std::string& expr) {
    const std::size_t q = expr.rfind("::");
    const std::string name = q == std::string::npos ? expr : expr.substr(q + 2);
    if (name.empty() || !std::all_of(name.begin(), name.end(), ident_char)) {
        return "";
    }
    return name;
}

// ---- fact extraction ------------------------------------------------------

struct SplitSite {
    std::size_t line = 0;  // 0-based
    bool is_literal = false;
    std::uint64_t value = 0;
    std::string name;  // ident arg (unqualified), empty if unparseable
};

/// Every `.split(<arg>)` call site; wrapped argument lists are joined
/// across up to two following lines.
std::vector<SplitSite> split_sites(const Stripped& s) {
    std::vector<SplitSite> out;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        std::size_t pos = 0;
        while ((pos = line.find(".split(", pos)) != std::string::npos) {
            std::string rest = line.substr(pos + 7);
            for (std::size_t j = i + 1;
                 rest.find(')') == std::string::npos &&
                 j < s.code.size() && j <= i + 2;
                 ++j) {
                rest += " " + s.code[j];
            }
            const std::size_t close = rest.find(')');
            pos += 7;
            if (close == std::string::npos) continue;
            const std::string arg = trim(rest.substr(0, close));
            SplitSite site;
            site.line = i;
            if (all_digits(arg)) {
                site.is_literal = true;
                site.value = std::stoull(arg);
                out.push_back(site);
            } else {
                site.name = last_component(arg);
                if (!site.name.empty()) out.push_back(site);
            }
        }
    }
    return out;
}

struct NamedValue {
    std::size_t line = 0;
    std::string name;
    std::uint64_t value = 0;
};

struct TableDecl {
    std::size_t line = 0;
    std::vector<StringLit> entries;
};

/// Lane constants and name tables in registry style, mined from any file
/// (a lane declared outside the registry is itself a finding).
struct RegistryFacts {
    std::vector<NamedValue> lanes;  // k<Family>Lane<Name>
    std::map<std::string, TableDecl> tables;  // configured table names only
};

/// The identifier being declared on a `constexpr ... name[...] = ...` or
/// `constexpr ... name = ...` line: the token just left of '=', skipping
/// an optional [..] array suffix.
std::string declared_name(const std::string& line, bool* is_array) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return "";
    std::size_t e = eq;
    while (e > 0 && std::isspace(static_cast<unsigned char>(line[e - 1])) != 0)
        --e;
    *is_array = false;
    if (e > 0 && line[e - 1] == ']') {
        const std::size_t open = line.rfind('[', e - 1);
        if (open == std::string::npos) return "";
        e = open;
        *is_array = true;
        while (e > 0 &&
               std::isspace(static_cast<unsigned char>(line[e - 1])) != 0)
            --e;
    }
    std::size_t b = e;
    while (b > 0 && ident_char(line[b - 1])) --b;
    return line.substr(b, e - b);
}

bool parse_lane_name(const std::string& name, std::string* family) {
    if (name.size() < 2 || name[0] != 'k') return false;
    const std::size_t pos = name.find("Lane");
    if (pos == std::string::npos) return false;
    *family = name.substr(1, pos - 1);
    return true;  // family may be empty — the checker flags that
}

RegistryFacts extract_registry(const Stripped& s,
                               const std::set<std::string>& table_names) {
    RegistryFacts out;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        if (!contains_token(line, "constexpr")) continue;
        bool is_array = false;
        const std::string name = declared_name(line, &is_array);
        if (name.empty()) continue;
        if (is_array && table_names.count(name) != 0) {
            // Collect entry strings up to the terminating ';'.
            std::size_t end = i;
            while (end < s.code.size() &&
                   s.code[end].find(';') == std::string::npos) {
                ++end;
            }
            TableDecl t;
            t.line = i;
            for (const StringLit& lit : s.strings) {
                if (lit.line >= i && lit.line <= end) t.entries.push_back(lit);
            }
            out.tables[name] = t;
            i = end;
            continue;
        }
        if (is_array) continue;
        std::string family;
        if (!parse_lane_name(name, &family)) continue;
        // Parse the integer initializer.
        const std::size_t eq = line.find('=');
        std::size_t v = eq + 1;
        while (v < line.size() &&
               std::isspace(static_cast<unsigned char>(line[v])) != 0)
            ++v;
        std::size_t d = v;
        while (d < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[d])) != 0)
            ++d;
        if (d == v) continue;  // alias or expression initializer: no fact
        out.lanes.push_back({i, name, std::stoull(line.substr(v, d - v))});
    }
    return out;
}

// ---- external (non-C++) surfaces -------------------------------------------

struct TextFile {
    bool ok = false;
    std::vector<std::string> lines;
};

TextFile read_text(const std::string& root, const std::string& rel) {
    TextFile out;
    std::ifstream in(std::filesystem::path(root) / rel, std::ios::binary);
    if (!in) return out;
    out.ok = true;
    std::string line;
    while (std::getline(in, line)) out.lines.push_back(line);
    return out;
}

/// One perf_gate invocation in the CI workflow: the consumed key plus the
/// `<bench-name>=<artifact>.json` mappings, with their 0-based lines.
struct GateStep {
    bool is_perf_gate = false;
    std::string key;       // --key=... value, or "" for the default
    std::size_t key_line = 0;
    std::vector<std::pair<std::string, std::size_t>> mappings;
};

/// SLO specs (`--slo name,signal,window,target`) with their lines.
struct CiFacts {
    std::vector<GateStep> steps;
    std::vector<std::pair<std::string, std::size_t>> slo_signals;
};

CiFacts parse_ci(const TextFile& ci) {
    CiFacts out;
    GateStep cur;
    auto flush = [&]() {
        if (cur.is_perf_gate) out.steps.push_back(cur);
        cur = GateStep{};
    };
    for (std::size_t i = 0; i < ci.lines.size(); ++i) {
        const std::string line = ci.lines[i];
        if (trim(line).rfind("- name:", 0) == 0) flush();
        std::istringstream ss(line);
        std::string tok;
        while (ss >> tok) {
            if (tok.find("perf_gate") != std::string::npos) {
                cur.is_perf_gate = true;
            }
            if (tok.rfind("--key=", 0) == 0) {
                cur.key = tok.substr(6);
                cur.key_line = i;
            }
            if (tok.rfind("--slo", 0) == 0) {
                std::string spec;
                if (tok.size() > 6 && tok[5] == '=') {
                    spec = tok.substr(6);
                } else if (ss >> spec) {
                }
                // name,signal,window,target -> field 1
                std::vector<std::string> fields;
                std::stringstream fs(spec);
                std::string f;
                while (std::getline(fs, f, ',')) fields.push_back(f);
                if (fields.size() >= 2) out.slo_signals.push_back({fields[1], i});
            }
            // `<name>=<...>.json` mapping; flags (--out=..., --baseline=...)
            // start with '-'.
            const std::size_t eq = tok.find('=');
            if (eq != std::string::npos && eq > 0 && tok[0] != '-' &&
                tok.size() > 5 && tok.rfind(".json") == tok.size() - 5) {
                const std::string name = tok.substr(0, eq);
                if (std::all_of(name.begin(), name.end(), ident_char)) {
                    cur.mappings.push_back({name, i});
                }
            }
        }
    }
    flush();
    return out;
}

/// Top-level JSON keys of the frozen baseline file: `"name":` at object
/// depth 1, tracked string-aware so brace characters inside values never
/// shift the depth.
std::vector<std::pair<std::string, std::size_t>> parse_json_keys(
    const TextFile& f) {
    std::vector<std::pair<std::string, std::size_t>> out;
    int depth = 0;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& line = f.lines[i];
        std::size_t pos = 0;
        while (pos < line.size()) {
            const char c = line[pos];
            if (c == '{' || c == '[') {
                ++depth;
                ++pos;
            } else if (c == '}' || c == ']') {
                --depth;
                ++pos;
            } else if (c == '"') {
                std::size_t end = pos + 1;
                while (end < line.size() &&
                       (line[end] != '"' || line[end - 1] == '\\'))
                    ++end;
                if (end >= line.size()) {
                    pos = end;
                    break;
                }
                std::size_t j = end + 1;
                while (j < line.size() &&
                       std::isspace(static_cast<unsigned char>(line[j])) != 0)
                    ++j;
                if (depth == 1 && j < line.size() && line[j] == ':') {
                    out.push_back({line.substr(pos + 1, end - pos - 1), i});
                }
                pos = end + 1;
            } else {
                ++pos;
            }
        }
    }
    return out;
}

// ---- the checker ----------------------------------------------------------

class ContractChecker {
public:
    ContractChecker(const std::string& root,
                    const std::vector<FileScan>& scans,
                    std::vector<Diagnostic>& out)
        : root_(root), scans_(scans), out_(out) {
        for (const FileScan& f : scans_) by_path_[f.path] = &f;
    }

    void run() {
        if (!resolve_registry()) return;
        check_lanes();
        check_gates();
    }

private:
    const FileScan* find(const std::string& path) const {
        const auto it = by_path_.find(path);
        return it == by_path_.end() ? nullptr : it->second;
    }

    void emit(const char* rule, const std::string& path, std::size_t line_idx,
              const std::string& message) {
        const FileScan* f = find(path);
        if (f != nullptr && f->sup.mutes(line_idx, rule)) return;
        out_.push_back({path, line_idx + 1, rule, message});
    }

    /// Locates the registry and mines it.  Also flags lane constants
    /// declared anywhere else (C1).
    bool resolve_registry() {
        const std::set<std::string> tables = {kSignalTable, kGateKeyTable};
        for (const FileScan& f : scans_) {
            if (f.path == kRegistryPath) continue;
            const RegistryFacts facts = extract_registry(f.s, tables);
            for (const NamedValue& nv : facts.lanes) {
                emit("C1", f.path, nv.line,
                     "RNG lane constant '" + nv.name +
                         "' declared outside the contract registry (" +
                         kRegistryPath + ")");
            }
        }
        if (const FileScan* f = find(kRegistryPath)) {
            registry_ = extract_registry(f->s, tables);
            return true;
        }
        emit("C5", kRegistryPath, 0,
             "contract registry header not found: every lane and contract "
             "name table must be declared there");
        return false;
    }

    bool has_table(const std::string& name) const {
        return registry_.tables.count(name) != 0;
    }

    std::set<std::string> table_set(const std::string& name) const {
        std::set<std::string> out;
        const auto it = registry_.tables.find(name);
        if (it == registry_.tables.end()) return out;
        for (const StringLit& lit : it->second.entries) out.insert(lit.text);
        return out;
    }

    // ---- C1 ----------------------------------------------------------------

    static const LaneFamily* family_scope(const std::string& family) {
        for (const LaneFamily& fam : kLaneFamilies) {
            if (fam.family == family) return &fam;
        }
        return nullptr;
    }

    void check_lanes() {
        // Paths where `.split(<integer>)` is a C1 error and idents must
        // resolve to registry lanes.
        static const std::vector<std::string> kLaneLiteralPaths = {"src/",
                                                                   "bench/"};
        struct LaneInfo {
            std::string family;
            std::uint64_t value = 0;
            std::size_t line = 0;
        };
        std::map<std::string, LaneInfo> lanes;  // name -> info
        std::map<std::string, std::map<std::uint64_t, std::string>> taken;
        for (const NamedValue& nv : registry_.lanes) {
            std::string family;
            parse_lane_name(nv.name, &family);
            const std::size_t lane_pos = nv.name.find("Lane");
            const std::string suffix = nv.name.substr(lane_pos + 4);
            if (family.empty() || suffix.empty()) {
                emit("C1", kRegistryPath, nv.line,
                     "lane constant '" + nv.name +
                         "' must be named k<Family>Lane<Name>");
                continue;
            }
            if (family_scope(family) == nullptr) {
                emit("C1", kRegistryPath, nv.line,
                     "lane family '" + family +
                         "' has no path scope in the lint's lane family "
                         "table (contracts.cpp): add it alongside the new "
                         "lanes");
                continue;
            }
            auto& values = taken[family];
            const auto prev = values.find(nv.value);
            if (prev != values.end()) {
                emit("C1", kRegistryPath, nv.line,
                     "lane value " + std::to_string(nv.value) +
                         " in family '" + family + "' collides with '" +
                         prev->second +
                         "': independent RNG consumers on the same root "
                         "would draw correlated streams");
                continue;
            }
            values[nv.value] = nv.name;
            lanes[nv.name] = {family, nv.value, nv.line};
        }

        std::set<std::string> used;
        for (const FileScan& f : scans_) {
            if (f.path == kRegistryPath) continue;
            const bool in_scope = path_has_prefix(f.path, kLaneLiteralPaths);
            for (const SplitSite& site : split_sites(f.s)) {
                if (!site.name.empty()) used.insert(site.name);
                if (!in_scope) continue;
                if (site.is_literal) {
                    emit("C1", f.path, site.line,
                         "magic RNG split lane " + std::to_string(site.value) +
                             ": use a named k<Family>Lane<Name> constant "
                             "from " + kRegistryPath);
                    continue;
                }
                const auto it = lanes.find(site.name);
                if (it == lanes.end()) {
                    emit("C1", f.path, site.line,
                         "split lane '" + site.name +
                             "' is not a registered lane constant in " +
                             kRegistryPath);
                    continue;
                }
                const LaneFamily* fam = family_scope(it->second.family);
                if (fam != nullptr && !path_has_prefix(f.path, fam->prefixes)) {
                    emit("C1", f.path, site.line,
                         "lane '" + site.name + "' belongs to family '" +
                             it->second.family +
                             "', which is scoped to other paths: reusing a "
                             "lane across subsystems aliases their RNG "
                             "streams");
                }
            }
        }

        // C5: registered lanes nothing ever splits.
        for (const auto& [name, info] : lanes) {
            if (used.count(name) == 0) {
                emit("C5", kRegistryPath, info.line,
                     "dead lane '" + name +
                         "': no .split() site in the scanned tree uses it");
            }
        }
    }

    /// Table entries never seen in `seen` are dead (C5).
    void deadness(const std::string& table, const std::set<std::string>& seen,
                  const std::string& why) {
        const auto it = registry_.tables.find(table);
        if (it == registry_.tables.end()) return;
        for (const StringLit& entry : it->second.entries) {
            if (seen.count(entry.text) == 0) {
                emit("C5", kRegistryPath, entry.line,
                     "dead registry entry \"" + entry.text + "\" in " +
                         table + ": " + why);
            }
        }
    }

    // ---- C4 ----------------------------------------------------------------

    void check_gates() {
        const TextFile ci = read_text(root_, kCiWorkflow);
        const CiFacts facts = ci.ok ? parse_ci(ci) : CiFacts{};

        // CI --slo specs must name a registered signal, or the SLO gate
        // step fails on a usage error instead of a verdict.
        if (has_table(kSignalTable)) {
            const std::set<std::string> signals = table_set(kSignalTable);
            for (const auto& [signal, line] : facts.slo_signals) {
                if (signals.count(signal) == 0) {
                    emit("C4", kCiWorkflow, line,
                         "CI --slo objective names signal '" + signal +
                             "', which is not in " + kSignalTable);
                }
            }
        }

        const std::set<std::string> gate_keys = table_set(kGateKeyTable);
        if (!has_table(kGateKeyTable)) return;
        const TextFile base = read_text(root_, kBaselines);
        std::vector<std::pair<std::string, std::size_t>> base_keys;
        if (base.ok) base_keys = parse_json_keys(base);
        std::set<std::string> base_set;
        for (const auto& [k, line] : base_keys) base_set.insert(k);

        std::set<std::string> consumed;
        std::set<std::string> gated_names;
        for (const GateStep& step : facts.steps) {
            const std::string key = step.key.empty() ? kDefaultGateKey : step.key;
            if (!step.key.empty() && gate_keys.count(step.key) == 0) {
                emit("C4", kCiWorkflow, step.key_line,
                     "perf gate consumes key '" + step.key + "' that is not in " +
                         kGateKeyTable + " (" + kRegistryPath + ")");
            }
            consumed.insert(key);
            for (const auto& [name, line] : step.mappings) {
                gated_names.insert(name);
                // Resolve the logical bench name to its source: exact
                // match first, then with the last _suffix stripped
                // (bench_fec_gf256 -> bench_fec).
                const FileScan* bench =
                    find(std::string(kBenchPrefix) + name + ".cpp");
                if (bench == nullptr) {
                    const std::size_t us = name.rfind('_');
                    if (us != std::string::npos) {
                        bench = find(kBenchPrefix + name.substr(0, us) + ".cpp");
                    }
                }
                if (bench == nullptr) {
                    emit("C4", kCiWorkflow, line,
                         "perf gate entry '" + name +
                             "' does not resolve to a bench source under " +
                             kBenchPrefix);
                    continue;
                }
                bool emits = false;
                for (const StringLit& lit : bench->s.strings) {
                    if (lit.text == key) emits = true;
                }
                if (!emits) {
                    emit("C4", kCiWorkflow, line,
                         "gated bench '" + bench->path +
                             "' never emits the gated key \"" + key +
                             "\": the claim gate would fail at runtime");
                }
                if (base.ok && base_set.count(name) == 0) {
                    emit("C4", kCiWorkflow, line,
                         "perf gate entry '" + name +
                             "' has no frozen floor in " + kBaselines);
                }
            }
        }

        // The default key is consumed by perf_gate's own source.
        bool perf_gate_scanned = false;
        for (const FileScan& f : scans_) {
            if (f.path.rfind(kPerfGatePrefix, 0) != 0) continue;
            perf_gate_scanned = true;
            for (const StringLit& lit : f.s.strings) {
                if (gate_keys.count(lit.text) != 0) consumed.insert(lit.text);
            }
        }
        if (perf_gate_scanned && gate_keys.count(kDefaultGateKey) == 0) {
            emit("C4", kRegistryPath, 0,
                 std::string("perf_gate's default key '") + kDefaultGateKey +
                     "' is not in " + kGateKeyTable);
        }

        if (ci.ok || perf_gate_scanned) {
            deadness(kGateKeyTable, consumed,
                     "no CI gate or perf_gate consumer references it");
        }
        if (ci.ok && base.ok) {
            for (const auto& [k, line] : base_keys) {
                if (!k.empty() && k[0] == '_') continue;  // annotations
                if (gated_names.count(k) == 0) {
                    emit("C5", kBaselines, line,
                         "baseline floor '" + k +
                             "' is gated by no CI perf_gate step");
                }
            }
        }
    }

    const std::string root_;
    const std::vector<FileScan>& scans_;
    std::vector<Diagnostic>& out_;
    std::map<std::string, const FileScan*> by_path_;
    RegistryFacts registry_;
};

}  // namespace

void internal::check_contracts(const std::string& root,
                               const std::vector<FileScan>& scans,
                               std::vector<Diagnostic>& out) {
    ContractChecker(root, scans, out).run();
}

}  // namespace espread::lint
