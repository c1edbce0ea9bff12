// espread_lint's own test suite.
//
// Fixture files under tests/lint_fixtures/ mirror the repo layout (the
// path-scoped rules D2/D5 key off src/exp, src/ prefixes) and carry one
// seeded violation per rule plus clean and suppressed variants; assertions
// pin exact rule ids and line numbers.  The suite also scans the real
// source tree and requires zero findings — the same scan CI runs — so a
// contract violation anywhere in src/bench/tests/tools/examples fails
// tier-1 locally, not just in CI.
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace {

using espread::lint::Diagnostic;

std::string read_fixture(const std::string& rel) {
    std::ifstream in(std::string(ESPREAD_LINT_FIXTURES) + "/" + rel,
                     std::ios::binary);
    EXPECT_TRUE(in) << "cannot read fixture " << rel;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<Diagnostic> lint_fixture(const std::string& rel) {
    return espread::lint::lint_source(rel, read_fixture(rel));
}

// Contract fixtures are mini repo trees under contracts/<case>/, scanned
// the way the real tree is.
std::vector<Diagnostic> scan_contract_fixture(const std::string& fixture) {
    return espread::lint::scan_tree(std::string(ESPREAD_LINT_FIXTURES) +
                                    "/contracts/" + fixture);
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
    std::vector<std::string> ids;
    for (const auto& r : rules) {
        ids.emplace_back(r.id);
        EXPECT_TRUE(espread::lint::known_rule(r.id));
    }
    // D3, C2 and C3 are retired, not renumbered.
    EXPECT_EQ(ids, (std::vector<std::string>{"D0", "D1", "D2", "D4", "D5",
                                             "C1", "C4", "C5"}));
    EXPECT_FALSE(espread::lint::known_rule("D3"));
    EXPECT_FALSE(espread::lint::known_rule("D9"));
    EXPECT_FALSE(espread::lint::known_rule("C0"));
    EXPECT_FALSE(espread::lint::known_rule("C2"));
    EXPECT_FALSE(espread::lint::known_rule("C3"));
    EXPECT_FALSE(espread::lint::known_rule("C6"));
    EXPECT_FALSE(espread::lint::known_rule(""));
}

TEST(LintFixtures, D1FlagsEntropySource) {
    // Line 21 declares `using clock = std::chrono::steady_clock;`: the
    // clock is caught by its type name, before the alias hides it.  Line 31
    // arms a profiling timer, whose signals land wherever the CPU is.
    const auto diags = lint_fixture("src/core/d1_entropy.cpp");
    ASSERT_EQ(keys(diags), (Keys{{"D1", 10}, {"D1", 21}, {"D1", 31}}));
    EXPECT_NE(diags[0].message.find("random_device"), std::string::npos);
    EXPECT_NE(diags[1].message.find("steady_clock"), std::string::npos);
    EXPECT_NE(diags[2].message.find("setitimer"), std::string::npos);
}

TEST(LintFixtures, D2FlagsHashContainersInOrderedOutputPath) {
    const auto diags = lint_fixture("src/exp/d2_hash_merge.cpp");
    EXPECT_EQ(keys(diags), (Keys{{"D2", 5}, {"D2", 9}}));
}

TEST(LintFixtures, D2IgnoresHashContainersOutsideOrderedOutputPaths) {
    // The same content under src/core (not an ordered-output path) is fine.
    const auto diags = espread::lint::lint_source(
        "src/core/d2_hash_merge.cpp", read_fixture("src/exp/d2_hash_merge.cpp"));
    EXPECT_TRUE(diags.empty());
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
    const auto diags = espread::lint::scan_tree(ESPREAD_LINT_FIXTURES);
    // 3 (D1) + 2 (D2) + 3 (D4) + 3 (D5) + 2 (D0+D1 no-reason), plus the
    // C5 finding that the fixture tree has no contract registry.
    ASSERT_EQ(diags.size(), 14u);
    // Deterministic order: sorted by path, then line.
    for (std::size_t i = 1; i < diags.size(); ++i) {
        EXPECT_LE(diags[i - 1].path, diags[i].path);
    }
    const auto registry = std::find_if(
        diags.begin(), diags.end(),
        [](const Diagnostic& d) { return d.path == "src/sim/contracts.hpp"; });
    ASSERT_NE(registry, diags.end());
    EXPECT_EQ(registry->rule, "C5");
    EXPECT_NE(registry->message.find("registry header not found"),
              std::string::npos);
}

TEST(LintSuppressions, UnknownRuleIdInAllowIsMalformed) {
    const auto diags = espread::lint::lint_source(
        "src/core/x.cpp", "// espread-lint: allow(D9) not a rule\nint x = 0;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D0");
}

TEST(LintSuppressions, SuppressionOnlyMutesNamedRules) {
    // allow(D2) does not mute the D1 on the same line.
    const auto diags = espread::lint::lint_source(
        "src/core/x.cpp",
        "#include <ctime>\n"
        "long f() { return time(nullptr); }  "
        "// espread-lint: allow(D2) wrong rule id for this site\n");
    EXPECT_EQ(keys(diags), (Keys{{"D1", 2}}));
}

TEST(LintFormat, GccStyleDiagnosticsAreClickable) {
    const Diagnostic d{"src/exp/runner.cpp", 94, "D1", "bad"};
    EXPECT_EQ(espread::lint::format_gcc(d),
              "src/exp/runner.cpp:94: error: bad [D1]");
}

// ---- contract rules (C1, C4, C5) over fixture mini-trees -------------------

TEST(ContractFixtures, C1FlagsMagicLaneAndHonorsSuppression) {
    const auto diags = scan_contract_fixture("c1_magic_lane");
    ASSERT_EQ(keys(diags), (Keys{{"C1", 6}}));
    EXPECT_EQ(diags[0].path, "src/protocol/user.cpp");
    EXPECT_NE(diags[0].message.find("magic RNG split lane 4"),
              std::string::npos);
}

TEST(ContractFixtures, C1FlagsCollisionScopeBreachAndRogueDeclaration) {
    const auto diags = scan_contract_fixture("c1_collision");
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
    const auto diags = scan_contract_fixture("c4_gate");
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
    const auto diags = scan_contract_fixture("c4_slo");
    ASSERT_EQ(keys(diags), (Keys{{"C4", 7}}));
    EXPECT_EQ(diags[0].path, ".github/workflows/ci.yml");
    EXPECT_NE(diags[0].message.find("window_clf"), std::string::npos);
}

TEST(ContractFixtures, C5FlagsDeadLaneHonorsSuppression) {
    // kSessionLaneParked is equally dead but carries a reasoned allow(C5).
    const auto diags = scan_contract_fixture("c5_dead_entry");
    ASSERT_EQ(keys(diags), (Keys{{"C5", 9}}));
    EXPECT_EQ(diags[0].path, "src/sim/contracts.hpp");
    EXPECT_NE(diags[0].message.find("kSessionLaneDead"), std::string::npos);
}

TEST(ContractFixtures, ConsistentTreeIsClean) {
    const auto diags = scan_contract_fixture("clean");
    EXPECT_TRUE(diags.empty()) << espread::lint::format_gcc(diags.front());
}

TEST(ContractOutput, SarifReportCarriesRulesAndFindings) {
    const auto diags = scan_contract_fixture("c1_magic_lane");
    ASSERT_FALSE(diags.empty());
    const std::string sarif = espread::lint::sarif_json(diags);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"espread_lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"C1\""), std::string::npos);
    EXPECT_NE(sarif.find("src/protocol/user.cpp"), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 6"), std::string::npos);
}

// The acceptance gate: the real tree lints clean — token rules AND the
// cross-TU contract rules C1, C4, C5 — exactly the scan CI runs
// (espread_lint --root=<repo>).  No file is exempt: the only exemption is
// an inline suppression with a reason.
TEST(LintRepo, SourceTreeIsClean) {
    for (const Diagnostic& d : espread::lint::scan_tree(ESPREAD_REPO_ROOT)) {
        ADD_FAILURE() << espread::lint::format_gcc(d);
    }
}

}  // namespace
