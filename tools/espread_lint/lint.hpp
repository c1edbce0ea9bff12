// espread_lint — a determinism-contract static analyzer.
//
// Every figure in EXPERIMENTS.md depends on one invariant the compiler
// cannot see: simulations are seed-pure and byte-identical across thread
// counts (DESIGN.md §6-§8).  The golden tests defend that contract at
// runtime; this tool defends it at review time, as a token-level scanner
// over the source tree (no libclang, builds with the tier-1 toolchain).
//
// Rules (see DESIGN.md §9 for the full table):
//   D0  malformed suppression (missing reason string or unknown rule id)
//   D1  nondeterministic entropy/time source (std::random_device, rand(),
//       srand(), clock(), time(nullptr/NULL/0), gettimeofday, and the
//       std::chrono clocks by type name, so `using clock = ...` is caught)
//   D2  std::unordered_map / std::unordered_set in result-producing code
//       (src/engine, src/exp, src/obs, src/protocol/report*) where hash
//       order would leak into merged or serialized output
//   D4  direct trace-sink call (`x->record(...)`) without a null-gate on
//       the same pointer within the preceding lines — emission sites must
//       stay zero-cost when observability is off
//   D5  ownership / include hygiene in library targets (src/): no raw
//       `new`/`delete` expressions, no `<iostream>`
//
// The cross-TU contract rules C1 (RNG lanes), C4 (bench claim-gate keys
// and CI SLO specs) and C5 (dead registry entries) live in contracts.cpp;
// both rule groups run in the one scan_tree pass.  D3 (no `default:` in a
// switch over a contract enum) is retired: the build's -Werror=switch and
// -Werror=switch-enum make every switch over any enum name each
// enumerator, default or not.  C2 and C3 are retired: wire tags and name
// tables are checked by the compiler and by tests on real output.  No
// retired id is reused.
//
// Suppression syntax (line comments only):
//   some_code();  // espread-lint: allow(D1) reason the exception is sound
// A suppression with no reason string does not take effect and is itself
// flagged as D0.  A comment-only suppression line applies to the next line
// that contains code.  Suppressions are the only exemption: the scan skips
// tests/lint_fixtures/, whose files seed violations on purpose.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace espread::lint {

/// One finding.  `path` is repo-root relative, `line` is 1-based (0 for a
/// finding about a whole file).  Every rule is an error.
struct Diagnostic {
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/// Static description of one rule, for the SARIF rule table.
struct RuleInfo {
    const char* id;
    const char* summary;
};

/// All rules the scanner knows, D0 first.
const std::vector<RuleInfo>& rules();

/// True if `id` names a known rule ("D0", "D1", "D2", "D4", "D5", "C1",
/// "C4", "C5").
bool known_rule(const std::string& id);

/// The token rules D0-D5 over one in-memory source.  `path` is the
/// root-relative path the path-scoped rules D2 and D5 key off.  Sorted by
/// (line, rule).
std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content);

/// The scan CI runs: every C++ source (.cpp .cc .cxx .hpp .hxx .h .ipp)
/// under src bench tests tools examples of `root`, except
/// tests/lint_fixtures/, through the token rules and the contract rules
/// C1, C4 and C5.  Sorted by (path, line, rule).
std::vector<Diagnostic> scan_tree(const std::string& root);

/// `path:line: error: message [D1]` — clickable in editors and CI logs.
std::string format_gcc(const Diagnostic& d);

/// SARIF 2.1.0 document for GitHub code-scanning upload.
std::string sarif_json(const std::vector<Diagnostic>& diags);

}  // namespace espread::lint
