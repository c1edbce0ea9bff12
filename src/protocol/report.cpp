#include "protocol/report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/histogram.hpp"
#include "sim/stats.hpp"

namespace espread::proto {

void write_csv(std::ostream& out, const SessionResult& result) {
    out << "window,clf,lost_ldus,alf,undecodable,sender_dropped,"
           "retransmissions,actual_packet_burst,bound_used,playout_clf\n";
    for (const WindowReport& w : result.windows) {
        out << w.window << ',' << w.clf << ',' << w.lost_ldus << ','
            << sim::format_fixed(w.alf, 6) << ',' << w.undecodable << ','
            << w.sender_dropped << ',' << w.retransmissions << ','
            << w.actual_packet_burst << ',' << w.bound_used << ',';
        if (w.window < result.playout_window_clf.size()) {
            out << result.playout_window_clf[w.window];
        }
        out << '\n';
    }
}

void write_csv_file(const std::string& path, const SessionResult& result) {
    std::ofstream out{path};
    if (!out) throw std::runtime_error("write_csv_file: cannot open " + path);
    write_csv(out, result);
    if (!out) throw std::runtime_error("write_csv_file: write failed: " + path);
}

std::string summarize(const SessionResult& result) {
    const sim::RunningStats s = result.clf_stats();
    const sim::RunningStats p = result.playout_clf_stats();
    // Quantiles come from a histogram of the per-window CLFs, not from
    // re-sorting the series.  CLFs below obs::Histogram::kLinearMax (32)
    // land in exact buckets, so p50/p99 are exact for windows of up to
    // 31 LDUs.
    obs::Histogram clf_hist;
    for (const WindowReport& w : result.windows) clf_hist.record(w.clf);
    std::ostringstream out;
    out << result.windows.size() << " windows: CLF mean "
        << sim::format_fixed(s.mean(), 2) << " dev "
        << sim::format_fixed(s.deviation(), 2) << " max "
        << sim::format_fixed(s.max(), 0) << " p50 " << clf_hist.quantile(0.50)
        << " p99 " << clf_hist.quantile(0.99) << "; playout CLF mean "
        << sim::format_fixed(p.mean(), 2) << "; ALF "
        << sim::format_fixed(result.total.alf, 3) << "; packets "
        << result.data_channel.sent << " sent / " << result.data_channel.dropped
        << " dropped; ACKs applied " << result.acks_applied << "/"
        << result.acks_sent << "; required startup "
        << sim::format_fixed(static_cast<double>(result.required_startup) / 1e6,
                             1)
        << " ms";
    // Governor accounting appears only for governed sessions, keeping
    // ungoverned summaries byte-identical to pre-governor builds.
    const GovernorReport& g = result.governor;
    const std::size_t governed_windows =
        g.windows_in_state[0] + g.windows_in_state[1] + g.windows_in_state[2] +
        g.windows_in_state[3];
    if (governed_windows > 0) {
        out << "; governor N/D/F/R " << g.windows_in_state[0] << "/"
            << g.windows_in_state[1] << "/" << g.windows_in_state[2] << "/"
            << g.windows_in_state[3] << ", visits " << g.state_entries[0]
            << "/" << g.state_entries[1] << "/" << g.state_entries[2] << "/"
            << g.state_entries[3] << ", longest dwell " << g.longest_dwell[0]
            << "/" << g.longest_dwell[1] << "/" << g.longest_dwell[2] << "/"
            << g.longest_dwell[3] << ", ACKs rejected " << g.acks_rejected()
            << ", clamped " << g.observations_clamped << ", fallbacks "
            << g.fallbacks;
    }
    return out.str();
}

}  // namespace espread::proto
