// Every bench, example-CLI and tool binary refuses a malformed command
// line: it exits with its usage code (2; espread_report 1, because its 2
// means an SLO breach), names the offending flag on stderr, and never dies
// by a signal.  Each case is refused before any work starts, so a binary
// runs for milliseconds.  The count caps are checked in-process by
// test_runner; no binary is started at or past a cap.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

extern char** environ;

namespace {

struct Binary {
    const char* path;                ///< relative to the build tree
    std::vector<const char*> flags;  ///< count or number flags it takes
    int usage_code = 2;
};

// Test listings show the path, not the struct's bytes (pointers
// included, which would change the test names from build to build).
void PrintTo(const Binary& b, std::ostream* os) { *os << b.path; }

const Binary kBinaries[] = {
    {"bench/bench_fec", {"--trials"}},
    {"bench/bench_fig8_loss", {"--trials"}},
    {"bench/bench_fig11_bandwidth", {"--trials"}},
    {"bench/bench_fig12_buffer", {"--trials"}},
    {"bench/bench_impairment", {"--trials"}},
    {"bench/bench_nack", {"--trials"}},
    {"bench/bench_outage", {"--trials"}},
    {"bench/bench_table2", {"--trials"}},
    {"bench/bench_scale", {"--windows", "--sessions", "--churn-mean"}},
    {"bench/bench_telemetry", {"--windows", "--max-overhead"}},
    {"bench/bench_table1", {}},
    {"bench/bench_theorem1", {}},
    {"bench/bench_orthogonal", {}},
    {"bench/bench_validation", {}},
    {"examples/espread_cli", {"--windows", "--bw"}},
    {"tools/espread_lint/espread_lint", {"--jobs"}},
    {"tools/espread_report/espread_report", {"--max-rows"}, 1},
    {"tools/perf_gate/perf_gate", {"--tolerance"}},
};

struct Outcome {
    int status = 0;  ///< waitpid status
    std::string err;
};

Outcome run(const std::string& path, const std::vector<std::string>& args) {
    const std::string err_path = ::testing::TempDir() + "/espread_cli_" +
                                 std::to_string(::getpid()) + ".err";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> storage = {path};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : storage) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    Outcome out;
    if (rc != 0) {
        ADD_FAILURE() << "cannot start " << path;
        return out;
    }
    ::waitpid(pid, &out.status, 0);
    std::ifstream in(err_path);
    out.err.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    ::unlink(err_path.c_str());
    return out;
}

/// Argument lists that must each be refused, paired with the flag the
/// message must name.
std::vector<std::pair<std::vector<std::string>, std::string>> cases(
    const Binary& b) {
    std::vector<std::pair<std::vector<std::string>, std::string>> out = {
        {{"--bogus"}, "--bogus"}};
    if (b.flags.empty()) out.push_back({{"--trials=8"}, "--trials"});
    for (const std::string flag : b.flags) {
        for (const char* bad : {"=abc", "=-3", "=5x", "= 3", "=+3"}) {
            out.push_back({{flag + bad}, flag});
        }
        for (const char* bad : {"1e30", "nan"}) {
            out.push_back({{flag, bad}, flag});
        }
        out.push_back({{flag}, flag});  // no value
    }
    return out;
}

class CliReject : public ::testing::TestWithParam<Binary> {};

TEST_P(CliReject, RefusesMalformedInput) {
    const Binary& b = GetParam();
    const std::string path = std::string(ESPREAD_BUILD_DIR) + "/" + b.path;
    for (const auto& [args, flag] : cases(b)) {
        std::string shown;
        for (const std::string& a : args) shown += " '" + a + "'";
        SCOPED_TRACE(b.path + shown);
        const Outcome o = run(path, args);
        ASSERT_TRUE(WIFEXITED(o.status)) << "killed by signal "
                                         << WTERMSIG(o.status);
        EXPECT_EQ(WEXITSTATUS(o.status), b.usage_code) << o.err;
        EXPECT_NE(o.err.find(flag), std::string::npos) << o.err;
    }
}

std::string binary_name(const ::testing::TestParamInfo<Binary>& info) {
    const std::string path = info.param.path;
    return path.substr(path.rfind('/') + 1);
}

INSTANTIATE_TEST_SUITE_P(AllBinaries, CliReject, ::testing::ValuesIn(kBinaries),
                         binary_name);

// A bench binary exits non-zero on a stated claim and has a CI step: every
// bench above must be run by the workflow.
TEST(BenchCensus, EveryBenchRunsInCi) {
    std::ifstream in(std::string(ESPREAD_SOURCE_DIR) +
                     "/.github/workflows/ci.yml");
    ASSERT_TRUE(in) << "cannot read .github/workflows/ci.yml";
    const std::string ci(std::istreambuf_iterator<char>(in), {});
    for (const Binary& b : kBinaries) {
        const std::string path = b.path;
        if (path.rfind("bench/", 0) != 0) continue;
        // The binary's own name, not a prefix of a longer one.
        const std::string call = "./" + path;
        bool invoked = false;
        for (std::size_t at = ci.find(call); at != std::string::npos && !invoked;
             at = ci.find(call, at + 1)) {
            const std::size_t end = at + call.size();
            invoked = end == ci.size() || ci[end] == ' ' || ci[end] == '\n';
        }
        EXPECT_TRUE(invoked) << path << " has no CI step";
    }
}

// espread_cli reads a frame trace with --frames.  --trace=FILE writes a
// Chrome trace in every Monte-Carlo bench, so the CLI refuses it rather
// than parse a bench's trace output as a stream.
TEST(EspreadCli, RefusesTheBenchTraceFlag) {
    const Outcome o =
        run(std::string(ESPREAD_BUILD_DIR) + "/examples/espread_cli", {"--trace=x"});
    ASSERT_TRUE(WIFEXITED(o.status)) << "killed by signal " << WTERMSIG(o.status);
    EXPECT_EQ(WEXITSTATUS(o.status), 2) << o.err;
    EXPECT_NE(o.err.find("--trace"), std::string::npos) << o.err;
}

// One implementation per library concept: every header under src/ is
// included by code that ships — another src/ file (its own .cpp does not
// count), a bench, the CLI, a tool or perfbench — so a module only tests
// reach cannot linger.  engine/reference.hpp is the one exemption: it is
// the scalar oracle test_engine runs the SoA pool against, window by
// window, and nothing else may call it.
TEST(LibraryCensus, EveryHeaderHasANonTestIncluder) {
    namespace fs = std::filesystem;
    const fs::path root = ESPREAD_SOURCE_DIR;
    const std::regex include_re(R"re(#\s*include\s*"([^"]+)")re");
    std::set<std::pair<std::string, std::string>> includes;  // (header, file)
    for (const char* dir : {"src", "bench", "examples", "tools", "perfbench"}) {
        for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".hpp" && ext != ".cpp")) continue;
            std::ifstream in(entry.path());
            const std::string text(std::istreambuf_iterator<char>(in), {});
            for (std::sregex_iterator m(text.begin(), text.end(), include_re), end;
                 m != end; ++m) {
                includes.emplace((*m)[1].str(),
                                 fs::relative(entry.path(), root).generic_string());
            }
        }
    }
    std::size_t headers = 0;
    for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file() || entry.path().extension() != ".hpp") continue;
        ++headers;
        const std::string header =
            fs::relative(entry.path(), root / "src").generic_string();
        if (header == "engine/reference.hpp") continue;
        const std::string own_cpp =
            "src/" + header.substr(0, header.size() - 4) + ".cpp";
        bool included = false;
        for (const auto& [name, file] : includes) {
            included = included || (name == header && file != own_cpp);
        }
        EXPECT_TRUE(included) << "src/" << header
                              << " is included only by its own .cpp or by tests";
    }
    EXPECT_GT(headers, 20u) << "the scan found too few headers under " << root;
}

// perf_gate reads its baseline and bench files as strict JSON: a damaged
// file is refused with the usage code and named, never mined for the
// numbers in front of the damage.
TEST(PerfGate, RefusesMalformedJson) {
    const std::string gate =
        std::string(ESPREAD_BUILD_DIR) + "/tools/perf_gate/perf_gate";
    const std::string dir = ::testing::TempDir();
    const auto write = [&](const std::string& name, const std::string& text) {
        const std::string path =
            dir + "/perf_gate_" + std::to_string(::getpid()) + "_" + name;
        std::ofstream(path) << text;
        return path;
    };
    const std::string good_baseline = write("good_baseline.json",
                                            "{\"bench_scale\": 5e5}");
    const std::string good_bench = write("good_bench.json",
                                         "{\"windows_per_second\": 1e6}");
    const std::string truncated = write(
        "truncated.json", "{\"bench_scale\": 5e5, \"broken\": [1, {\"x\": 2}");
    const std::string garbage = write(
        "garbage.json", "{\"windows_per_second\": 1e6 garbage");
    const std::pair<std::string, std::string> cases[] = {
        {truncated, good_bench},
        {good_baseline, garbage},
    };
    for (const auto& [baseline, bench] : cases) {
        const std::string named = baseline == truncated ? baseline : bench;
        SCOPED_TRACE(named);
        const Outcome o =
            run(gate, {"--baseline=" + baseline, "bench_scale=" + bench});
        ASSERT_TRUE(WIFEXITED(o.status));
        EXPECT_EQ(WEXITSTATUS(o.status), 2) << o.err;
        EXPECT_NE(o.err.find(named), std::string::npos) << o.err;
    }
    const Outcome ok =
        run(gate, {"--baseline=" + good_baseline, "bench_scale=" + good_bench});
    ASSERT_TRUE(WIFEXITED(ok.status));
    EXPECT_EQ(WEXITSTATUS(ok.status), 0) << ok.err;
    for (const std::string& path : {good_baseline, good_bench, truncated, garbage}) {
        ::unlink(path.c_str());
    }
}

}  // namespace
