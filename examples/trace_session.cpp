// Structured session tracing: record one streaming session's event
// timeline, write it as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing), and walk through the busiest buffer window
// event-by-event in the terminal.
//
// Build & run:  ./build/examples/trace_session
// Then open trace_session.json at https://ui.perfetto.dev
#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/report.hpp"
#include "protocol/session.hpp"

using espread::obs::TraceEvent;

int main() {
    espread::proto::SessionConfig cfg;  // Fig. 8 defaults: Jurassic Park
    cfg.data_loss = {0.92, 0.6};
    cfg.feedback_loss = {0.92, 0.6};
    cfg.num_windows = 8;
    cfg.seed = 7;
    cfg.collect_metrics = true;

    espread::obs::TraceRecorder recorder(1 << 18);
    cfg.trace = &recorder;

    const espread::proto::SessionResult result =
        espread::proto::run_session(cfg);

    std::printf("=== traced session: %s ===\n\n",
                espread::proto::summarize(result).c_str());

    // Pick the window with the worst continuity — the one worth reading.
    std::size_t worst = 0;
    for (const espread::proto::WindowReport& w : result.windows) {
        if (w.clf > result.windows[worst].clf) worst = w.window;
    }

    std::vector<TraceEvent> events = recorder.events();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         return a.time < b.time;
                     });

    std::printf("window %zu annotated (CLF %zu, %zu retransmissions):\n\n",
                worst, result.windows[worst].clf,
                result.windows[worst].retransmissions);
    std::printf("  %-10s %-16s %-18s details\n", "t (ms)", "actor", "event");
    for (const TraceEvent& e : events) {
        if (e.window != worst) continue;
        std::printf("  %-10.3f %-16s %-18s seq=%llu arg=%lld v0=%.2f v1=%.2f\n",
                    static_cast<double>(e.time) / 1e6,
                    espread::obs::actor_name(e.actor),
                    espread::obs::event_name(e.type),
                    static_cast<unsigned long long>(e.seq),
                    static_cast<long long>(e.arg), e.v0, e.v1);
    }

    std::printf("\nmetrics registry:\n");
    std::printf("  data packets sent/dropped : %llu / %llu\n",
                static_cast<unsigned long long>(
                    result.metrics.counter("data_packets_sent")),
                static_cast<unsigned long long>(
                    result.metrics.counter("data_packets_dropped")));
    std::printf("  retransmissions           : %llu\n",
                static_cast<unsigned long long>(
                    result.metrics.counter("retransmissions")));
    if (const auto* h = result.metrics.find_histogram("loss_run_length")) {
        std::printf("  loss runs                 : %llu (mean length %.2f)\n",
                    static_cast<unsigned long long>(h->total()), h->mean());
    }

    espread::obs::write_chrome_trace_file("trace_session.json",
                                          recorder.events());
    espread::proto::write_event_csv_file("trace_session.csv",
                                         recorder.events());
    std::printf(
        "\nwrote trace_session.json (open at https://ui.perfetto.dev)\n"
        "wrote trace_session.csv  (flat event timeline)\n");
    return 0;
}
