// espread_lint's own test suite.
//
// Fixture files under tests/lint_fixtures/ mirror the repo layout (the
// path-scoped rules D2/D5 key off src/exp, src/ prefixes) and carry one
// seeded violation per rule plus clean and suppressed variants; assertions
// pin exact rule ids and line numbers.  The suite also lints the real
// source tree under the shipped allowlist and requires zero findings —
// the same gate CI applies — so a contract violation anywhere in
// src/bench/tests/examples fails tier-1 locally, not just in CI.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "contracts.hpp"

namespace {

using espread::lint::Diagnostic;
using espread::lint::LintConfig;
using espread::lint::ScanOptions;
using espread::lint::Severity;

// Fixture scans run without the repo allowlist: the allowlist's job on the
// real tree is precisely to mute these files.
LintConfig bare_config() { return espread::lint::default_config(); }

std::vector<Diagnostic> lint_fixture(const std::string& rel) {
    return espread::lint::lint_file(
        std::string(ESPREAD_LINT_FIXTURES) + "/" + rel, rel, bare_config());
}

// Contract fixtures are mini repo trees under contracts/<case>/; each scan
// runs the C rules only, so the fixtures need not be D-clean.
std::vector<Diagnostic> scan_contract_fixture(
    const std::string& fixture, const std::vector<std::string>& paths) {
    ScanOptions opt;
    opt.token_rules = false;
    opt.contract_rules = true;
    return espread::lint::scan_tree(
        std::string(ESPREAD_LINT_FIXTURES) + "/contracts/" + fixture, paths,
        bare_config(), opt);
}

/// (rule, line) pairs, for order-insensitive exact-set comparison.
std::vector<std::pair<std::string, std::size_t>> keys(
    const std::vector<Diagnostic>& diags) {
    std::vector<std::pair<std::string, std::size_t>> out;
    out.reserve(diags.size());
    for (const Diagnostic& d : diags) out.emplace_back(d.rule, d.line);
    return out;
}

using Keys = std::vector<std::pair<std::string, std::size_t>>;

TEST(LintRules, TableListsTokenAndContractRules) {
    const auto& rules = espread::lint::rules();
    ASSERT_EQ(rules.size(), 9u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(rules[i].id, "D" + std::to_string(i));
        EXPECT_TRUE(espread::lint::known_rule(rules[i].id));
    }
    // C2 and C3 are retired, not renumbered.
    EXPECT_EQ(std::string(rules[6].id), "C1");
    EXPECT_EQ(std::string(rules[7].id), "C4");
    EXPECT_EQ(std::string(rules[8].id), "C5");
    for (std::size_t i = 6; i < rules.size(); ++i) {
        EXPECT_TRUE(espread::lint::known_rule(rules[i].id));
    }
    EXPECT_FALSE(espread::lint::known_rule("D9"));
    EXPECT_FALSE(espread::lint::known_rule("C0"));
    EXPECT_FALSE(espread::lint::known_rule("C2"));
    EXPECT_FALSE(espread::lint::known_rule("C3"));
    EXPECT_FALSE(espread::lint::known_rule("C6"));
    EXPECT_FALSE(espread::lint::known_rule(""));
}

TEST(LintFixtures, D1FlagsEntropySource) {
    const auto diags = lint_fixture("src/core/d1_entropy.cpp");
    ASSERT_EQ(keys(diags), (Keys{{"D1", 10}}));
    EXPECT_EQ(diags[0].severity, Severity::kError);
    EXPECT_NE(diags[0].message.find("random_device"), std::string::npos);
}

TEST(LintFixtures, D2FlagsHashContainersInOrderedOutputPath) {
    const auto diags = lint_fixture("src/exp/d2_hash_merge.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D2", 5}, {"D2", 9}}));
}

TEST(LintFixtures, D2IgnoresHashContainersOutsideOrderedOutputPaths) {
    // The same content under src/core (not an ordered-output path) is fine.
    const auto diags = espread::lint::lint_file(
        std::string(ESPREAD_LINT_FIXTURES) + "/src/exp/d2_hash_merge.cpp",
        "src/core/d2_hash_merge.cpp", bare_config());
    EXPECT_TRUE(diags.empty());
}

TEST(LintFixtures, D3FlagsDefaultInContractEnumSwitch) {
    const auto diags = lint_fixture("src/obs/d3_default_switch.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D3", 13}}));
}

TEST(LintFixtures, D3FlagsDefaultInSchemeSwitchAcceptsExhaustiveOne) {
    const auto diags = lint_fixture("src/protocol/d3_scheme_switch.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D3", 21}}));
}

TEST(LintFixtures, D3FlagsDefaultInRecoveryModeSwitchAcceptsExhaustiveOne) {
    const auto diags =
        lint_fixture("src/protocol/d3_recovery_mode_switch.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D3", 17}}));
}

TEST(LintFixtures, D4FlagsUngatedSinkCallAcceptsGatedOne) {
    const auto diags = lint_fixture("src/protocol/d4_ungated_sink.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D4", 15}}));
}

TEST(LintFixtures, D4MatchesObserveFamilyThroughMethodNameContinuation) {
    const auto diags = lint_fixture("src/engine/d4_observe_sites.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D4", 15}}));
}

TEST(LintFixtures, D4FlagsUngatedFecTraceSiteAcceptsGatedOne) {
    const auto diags = lint_fixture("src/fec/d4_rlc_trace.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D4", 16}}));
}

TEST(LintFixtures, D5FlagsIostreamRawNewAndDelete) {
    const auto diags = lint_fixture("src/media/d5_raw_new.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D5", 3}, {"D5", 12}, {"D5", 16}}));
}

TEST(LintFixtures, CleanFileHasNoFindings) {
    const auto diags = lint_fixture("src/core/clean.cpp");
    EXPECT_TRUE(diags.empty()) << espread::lint::format_gcc(diags.front());
}

TEST(LintFixtures, ValidSuppressionsSilenceFindings) {
    const auto diags = lint_fixture("src/core/suppressed.cpp");
    EXPECT_TRUE(diags.empty()) << espread::lint::format_gcc(diags.front());
}

TEST(LintFixtures, SuppressionWithoutReasonIsFlaggedAndIneffective) {
    const auto diags = lint_fixture("src/core/suppressed_no_reason.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D0", 9}, {"D1", 9}}));
}

TEST(LintFixtures, TreeScanAggregatesAllSeededViolations) {
    const auto diags = espread::lint::lint_tree(ESPREAD_LINT_FIXTURES,
                                                {"src"}, bare_config());
    // 1 (D1) + 2 (D2) + 3 (D3) + 3 (D4) + 3 (D5) + 2 (D0+D1 no-reason).
    EXPECT_EQ(diags.size(), 14u);
    // Deterministic order: sorted by path, then line.
    for (std::size_t i = 1; i < diags.size(); ++i) {
        EXPECT_LE(diags[i - 1].path, diags[i].path);
    }
}

TEST(LintSuppressions, UnknownRuleIdInAllowIsMalformed) {
    const auto diags = espread::lint::lint_source(
        "src/core/x.cpp",
        "// espread-lint: allow(D9) not a rule\nint x = 0;\n", bare_config());
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D0");
}

TEST(LintSuppressions, SuppressionOnlyMutesNamedRules) {
    // allow(D3) does not mute the D1 on the same line.
    const auto diags = espread::lint::lint_source(
        "src/core/x.cpp",
        "#include <ctime>\n"
        "long f() { return time(nullptr); }  "
        "// espread-lint: allow(D3) wrong rule id for this site\n",
        bare_config());
    EXPECT_EQ(keys(diags), (Keys{{"D1", 2}}));
}

TEST(LintAllowlist, GlobMatchingIsSegmentAwareWithDoubleStar) {
    using espread::lint::glob_match;
    EXPECT_TRUE(glob_match("src/sim/rng.*", "src/sim/rng.cpp"));
    EXPECT_TRUE(glob_match("src/sim/rng.*", "src/sim/rng.hpp"));
    EXPECT_FALSE(glob_match("src/sim/rng.*", "src/sim/stats.cpp"));
    EXPECT_TRUE(glob_match("bench/*", "bench/bench_fig8_loss.cpp"));
    // `*` stops at '/': nested paths need `**`.
    EXPECT_FALSE(glob_match("bench/*", "bench/baselines/frozen.cpp"));
    EXPECT_TRUE(glob_match("bench/**", "bench/baselines/frozen.cpp"));
    EXPECT_TRUE(glob_match("tests/lint_fixtures/**",
                           "tests/lint_fixtures/src/core/clean.cpp"));
    EXPECT_FALSE(glob_match("tests/lint_fixtures/*",
                            "tests/lint_fixtures/src/core/clean.cpp"));
    EXPECT_FALSE(glob_match("tests/lint_fixtures/**", "tests/test_lint.cpp"));
    EXPECT_FALSE(glob_match("*", "anything/at/all.hpp"));
    EXPECT_TRUE(glob_match("**", "anything/at/all.hpp"));
    EXPECT_TRUE(glob_match("src/**/rng.?pp", "src/sim/detail/rng.hpp"));
    EXPECT_FALSE(glob_match("src/?", "src/ab"));
}

TEST(LintAllowlist, EntriesExemptMatchingFilesFromTheNamedRule) {
    LintConfig cfg = bare_config();
    cfg.allowlist.push_back({"D1", "src/core/d1_*"});
    const auto diags = espread::lint::lint_file(
        std::string(ESPREAD_LINT_FIXTURES) + "/src/core/d1_entropy.cpp",
        "src/core/d1_entropy.cpp", cfg);
    EXPECT_TRUE(diags.empty());
}

TEST(LintFormat, GccStyleDiagnosticsAreClickable) {
    const Diagnostic d{"src/exp/runner.cpp", 94, "D1", "bad", Severity::kError};
    EXPECT_EQ(espread::lint::format_gcc(d),
              "src/exp/runner.cpp:94: error: bad [D1]");
}

// ---- contract rules (C1, C4, C5) over fixture mini-trees -------------------

TEST(ContractFixtures, C1FlagsMagicLaneAndHonorsSuppression) {
    const auto diags = scan_contract_fixture("c1_magic_lane", {"src"});
    ASSERT_EQ(keys(diags), (Keys{{"C1", 6}}));
    EXPECT_EQ(diags[0].path, "src/protocol/user.cpp");
    EXPECT_NE(diags[0].message.find("magic RNG split lane 4"),
              std::string::npos);
}

TEST(ContractFixtures, C1FlagsCollisionScopeBreachAndRogueDeclaration) {
    const auto diags = scan_contract_fixture("c1_collision", {"src"});
    ASSERT_EQ(diags.size(), 4u);
    // Sorted by path: the scope breach, the out-of-registry declaration and
    // its (unregistered) use, then the value collision in the registry.
    EXPECT_EQ(diags[0].path, "src/engine/user.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"C1", 6}, {"C1", 5}, {"C1", 9}, {"C1", 8}}));
    EXPECT_EQ(diags[1].path, "src/protocol/rogue.cpp");
    EXPECT_EQ(diags[3].path, "src/sim/contracts.hpp");
    EXPECT_NE(diags[3].message.find("collides"), std::string::npos);
}

TEST(ContractFixtures, C4FlagsUnregisteredGateKeyAndUnemittedKey) {
    const auto diags = scan_contract_fixture("c4_gate", {"src", "bench"});
    ASSERT_EQ(diags.size(), 4u);
    EXPECT_EQ(diags[0].path, ".github/workflows/ci.yml");
    EXPECT_EQ(diags[1].path, ".github/workflows/ci.yml");
    EXPECT_EQ(keys(diags), (Keys{{"C4", 6}, {"C4", 6}, {"C5", 4}, {"C5", 8}}));
    EXPECT_EQ(diags[2].path, "bench/baselines/BENCH_baseline.json");
    EXPECT_NE(diags[2].message.find("bench_stale"), std::string::npos);
    EXPECT_EQ(diags[3].path, "src/sim/contracts.hpp");
    EXPECT_NE(diags[3].message.find("windows_per_second"), std::string::npos);
}

TEST(ContractFixtures, C4FlagsCiSloSpecNamingAnUnregisteredSignal) {
    const auto diags = scan_contract_fixture("c4_slo", {"src"});
    ASSERT_EQ(keys(diags), (Keys{{"C4", 7}}));
    EXPECT_EQ(diags[0].path, ".github/workflows/ci.yml");
    EXPECT_NE(diags[0].message.find("window_clf"), std::string::npos);
}

TEST(ContractFixtures, C5FlagsDeadLaneHonorsSuppression) {
    // kSessionLaneParked is equally dead but carries a reasoned allow(C5).
    const auto diags = scan_contract_fixture("c5_dead_entry", {"src"});
    ASSERT_EQ(keys(diags), (Keys{{"C5", 9}}));
    EXPECT_EQ(diags[0].path, "src/sim/contracts.hpp");
    EXPECT_NE(diags[0].message.find("kSessionLaneDead"), std::string::npos);
}

TEST(ContractFixtures, C4AllowlistEntrySilencesGateSurfaceFindings) {
    // ci.yml cannot carry inline suppressions; the allowlist is the
    // sanctioned mute for external gate surfaces.
    ScanOptions opt;
    opt.token_rules = false;
    opt.contract_rules = true;
    LintConfig cfg = bare_config();
    cfg.allowlist.push_back({"C4", ".github/**"});
    const auto diags = espread::lint::scan_tree(
        std::string(ESPREAD_LINT_FIXTURES) + "/contracts/c4_gate",
        {"src", "bench"}, cfg, opt);
    EXPECT_EQ(keys(diags), (Keys{{"C5", 4}, {"C5", 8}}));
}

TEST(ContractFixtures, ConsistentTreeIsClean) {
    const auto diags = scan_contract_fixture("clean", {"src"});
    EXPECT_TRUE(diags.empty()) << espread::lint::format_gcc(diags.front());
}

TEST(ContractFixtures, ParallelScanIsByteIdenticalToSerial) {
    ScanOptions serial;
    serial.token_rules = true;
    serial.contract_rules = true;
    serial.jobs = 1;
    ScanOptions parallel = serial;
    parallel.jobs = 4;
    const std::string root =
        std::string(ESPREAD_LINT_FIXTURES) + "/contracts/c1_collision";
    const auto a =
        espread::lint::scan_tree(root, {"src"}, bare_config(), serial);
    const auto b =
        espread::lint::scan_tree(root, {"src"}, bare_config(), parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(espread::lint::format_gcc(a[i]),
                  espread::lint::format_gcc(b[i]));
    }
}

TEST(ContractOutput, SarifReportCarriesRulesAndFindings) {
    const auto diags = scan_contract_fixture("c1_magic_lane", {"src"});
    ASSERT_FALSE(diags.empty());
    const std::string sarif = espread::lint::sarif_json(diags);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"espread_lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"C1\""), std::string::npos);
    EXPECT_NE(sarif.find("src/protocol/user.cpp"), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 6"), std::string::npos);
}

TEST(ContractOutput, CoverageGapsReportsCompiledButUnscannedTUs) {
    const std::vector<std::string> visited = {"src/a.cpp", "src/b.cpp"};
    const std::string cc =
        "[{\"directory\": \"/repo/build\", \"file\": \"/repo/src/a.cpp\"},\n"
        " {\"directory\": \"/repo/build\", \"file\": \"/repo/src/c.cpp\"},\n"
        " {\"directory\": \"/repo/build\", \"file\": \"/repo/tools/x.cpp\"}]";
    const auto gaps =
        espread::lint::coverage_gaps(visited, cc, "/repo", {"src/"});
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0], "src/c.cpp");
}

// The acceptance gate: the real tree lints clean — token rules AND the
// cross-TU contract rules C1, C4, C5 — under the shipped allowlist, exactly the scan
// CI runs (espread_lint --root=<repo> --contracts src bench tests tools
// examples).
TEST(LintRepo, SourceTreeIsCleanUnderShippedAllowlist) {
    LintConfig cfg = bare_config();
    std::string err;
    ASSERT_TRUE(espread::lint::load_allowlist_file(
        std::string(ESPREAD_REPO_ROOT) + "/tools/espread_lint/allowlist.txt",
        cfg, &err))
        << err;
    ScanOptions opt;
    opt.token_rules = true;
    opt.contract_rules = true;
    opt.jobs = 0;
    const auto diags = espread::lint::scan_tree(
        ESPREAD_REPO_ROOT, {"src", "bench", "tests", "tools", "examples"},
        cfg, opt);
    for (const Diagnostic& d : diags) {
        ADD_FAILURE() << espread::lint::format_gcc(d);
    }
}

}  // namespace
