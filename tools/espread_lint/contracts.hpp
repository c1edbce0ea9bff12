// Cross-TU contract rules C1, C4 and C5: a two-phase extract-then-check
// analyzer over the whole tree.
//
// Phase 1 (parallel): every C++ source is read, stripped, and mined for
// contract facts — `.split(<arg>)` call sites and registry lane/table
// declarations.
//
// Phase 2 (serial): the facts are checked against the contract registry
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
// table with the names real runs emit.
//
// Suppressions (`// espread-lint: allow(C1) reason`) and the allowlist
// work exactly as for the token rules; `* <glob>` allowlist entries also
// exclude a file from fact extraction (so test fixtures never pollute the
// real scan).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint.hpp"

namespace espread::lint {

/// Where the contracts live and which paths each check scopes to.  The
/// defaults encode this repo's layout; fixture tests override root-relative
/// paths only implicitly by laying out the same shape under a fixture root.
struct ContractConfig {
    /// The registry header, repo-root relative.
    std::string registry_path = "src/sim/contracts.hpp";

    /// One entry per lane family `k<Family>Lane<Name>`: the path prefixes
    /// inside which that family's lanes may be split.
    struct LaneFamily {
        std::string family;
        std::vector<std::string> prefixes;
    };
    std::vector<LaneFamily> lane_families = {
        {"Session", {"src/protocol/"}},
        {"Engine", {"src/engine/"}},
        {"Analysis", {"src/analysis/", "bench/"}},
    };
    /// Paths where `.split(<integer>)` is a C1 error and idents must
    /// resolve to registry lanes.
    std::vector<std::string> lane_literal_paths = {"src/", "bench/"};

    /// Bench claim-gate surfaces (C4).  External (non-C++) files are read
    /// directly from the scan root; a check skips when its file is absent.
    std::string ci_workflow = ".github/workflows/ci.yml";
    std::string baselines = "bench/baselines/BENCH_baseline.json";
    std::string perf_gate_prefix = "tools/perf_gate/";
    std::string bench_prefix = "bench/";
    std::string default_gate_key = "windows_per_second";

    /// Registry table variable names (C4).
    std::string signal_table = "kTelemetrySignalNames";
    std::string gate_key_table = "kBenchGateKeys";
};

/// The repo's contract configuration (all defaults above).
ContractConfig default_contract_config();

/// One scan over the tree: which rule groups run, how many worker threads
/// phase 1 uses, and (optionally) which files were visited — the input to
/// the compile_commands coverage guard.
struct ScanOptions {
    bool token_rules = true;
    bool contract_rules = false;
    /// Phase-1 worker threads; 0 means one per hardware thread.  Output is
    /// byte-identical for every job count.
    std::size_t jobs = 1;
    ContractConfig contracts;
    /// When non-null, filled with the root-relative path of every file the
    /// scan visited (sorted, deduplicated).
    std::vector<std::string>* visited = nullptr;
};

/// Walks `paths` (files or directories, relative to `root`), scans every
/// C++ source once, and runs the selected rule groups.  Diagnostics are
/// sorted by (path, line, rule) and deterministic across job counts.
std::vector<Diagnostic> scan_tree(const std::string& root,
                                  const std::vector<std::string>& paths,
                                  const LintConfig& cfg,
                                  const ScanOptions& opt);

/// Coverage guard: returns the root-relative TUs listed in a
/// compile_commands.json (given as its text) that fall under `prefixes`
/// but were never visited by the scan.  Empty result == full coverage.
std::vector<std::string> coverage_gaps(
    const std::vector<std::string>& visited,
    const std::string& compile_commands_text, const std::string& root,
    const std::vector<std::string>& prefixes);

/// SARIF 2.1.0 document for GitHub code-scanning upload.
std::string sarif_json(const std::vector<Diagnostic>& diags);

}  // namespace espread::lint
