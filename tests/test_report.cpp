#include "protocol/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

namespace {

using espread::proto::run_session;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::summarize;
using espread::proto::write_csv;
using espread::proto::write_csv_file;

SessionResult small_result() {
    SessionConfig cfg;
    cfg.num_windows = 5;
    cfg.seed = 3;
    return run_session(cfg);
}

TEST(Report, CsvHasHeaderAndOneRowPerWindow) {
    const SessionResult r = small_result();
    std::ostringstream out;
    write_csv(out, r);
    std::istringstream in{out.str()};
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.substr(0, 11), "window,clf,");
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        // 10 columns -> 9 commas
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 9);
    }
    EXPECT_EQ(rows, 5u);
}

TEST(Report, CsvIncludesPlayoutClfColumn) {
    const SessionResult r = small_result();
    ASSERT_EQ(r.playout_window_clf.size(), r.windows.size());
    std::ostringstream out;
    write_csv(out, r);
    std::istringstream in{out.str()};
    std::string line;
    std::getline(in, line);
    EXPECT_NE(line.find(",playout_clf"), std::string::npos);
    std::getline(in, line);  // window 0
    const std::size_t last_comma = line.rfind(',');
    ASSERT_NE(last_comma, std::string::npos);
    EXPECT_EQ(line.substr(last_comma + 1),
              std::to_string(r.playout_window_clf[0]));
}

TEST(Report, CsvRowsMatchWindowReports) {
    const SessionResult r = small_result();
    std::ostringstream out;
    write_csv(out, r);
    std::istringstream in{out.str()};
    std::string line;
    std::getline(in, line);  // header
    std::getline(in, line);  // window 0
    std::istringstream row{line};
    std::string cell;
    std::getline(row, cell, ',');
    EXPECT_EQ(cell, "0");
    std::getline(row, cell, ',');
    EXPECT_EQ(cell, std::to_string(r.windows[0].clf));
}

TEST(Report, CsvFileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/espread_report.csv";
    write_csv_file(path, small_result());
    std::ifstream in{path};
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("bound_used"), std::string::npos);
    EXPECT_THROW(write_csv_file("/nonexistent/dir/x.csv", small_result()),
                 std::runtime_error);
}

TEST(Report, SummaryMentionsKeyStatistics) {
    const std::string s = summarize(small_result());
    EXPECT_NE(s.find("5 windows"), std::string::npos);
    EXPECT_NE(s.find("CLF mean"), std::string::npos);
    EXPECT_NE(s.find("playout CLF mean"), std::string::npos);
    EXPECT_NE(s.find("ALF"), std::string::npos);
    EXPECT_NE(s.find("ACKs applied"), std::string::npos);
    EXPECT_NE(s.find("required startup"), std::string::npos);
    EXPECT_NE(s.find(" ms"), std::string::npos);
}

TEST(Report, OneWindowSummaryHasZeroDeviationNotNaN) {
    // A 1-window session exercises the n == 1 Welford edge everywhere the
    // report aggregates: the deviation must render as exactly 0.00.
    SessionConfig cfg;
    cfg.num_windows = 1;
    cfg.seed = 3;
    const SessionResult r = run_session(cfg);
    ASSERT_EQ(r.windows.size(), 1u);
    const espread::sim::RunningStats s = r.clf_stats();
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.deviation(), 0.0);
    EXPECT_FALSE(std::isnan(r.playout_clf_stats().deviation()));
    const std::string text = summarize(r);
    EXPECT_NE(text.find("1 windows"), std::string::npos);
    EXPECT_NE(text.find("dev 0.00"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_EQ(text.find("governor"), std::string::npos)
        << "ungoverned summaries must not mention the governor";
}

}  // namespace
