// espread_cli — command-line driver for the streaming simulator.
//
// Runs one configured session and prints per-window CLF plus summary
// statistics; every experiment in the paper (and any variation) can be
// reproduced from the shell without writing code.
//
//   espread_cli --scheme spread --pbad 0.7 --bw 1.2e6 --gops 2 --windows 100
//   espread_cli --stream audio --ldus 8 --rate 30 --scheme inorder
//   espread_cli --fec 1,2 --retransmit 0 --quiet
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "protocol/report.hpp"
#include "protocol/session.hpp"

using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::scheme_name;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::StreamKind;

namespace {

[[noreturn]] void usage(int code) {
    std::printf(
        "usage: espread_cli [flags]\n"
        "  --scheme  inorder|layered|ibo|spread   transmission scheme (spread)\n"
        "  --stream  mpeg|mjpeg|audio|trace       stream kind (mpeg)\n"
        "  --movie   NAME                         MPEG trace (Jurassic Park)\n"
        "  --trace   PATH                         frame-trace file (implies --stream trace)\n"
        "  --csv     PATH                         also write per-window CSV\n"
        "  --gops    N                            GOPs per window, mpeg (2)\n"
        "  --ldus    N                            LDUs per window, mjpeg/audio (24)\n"
        "  --rate    FPS                          frame rate, mjpeg/audio (24)\n"
        "  --bw      BPS                          data bandwidth (1.2e6)\n"
        "  --rtt     MS                           round-trip time (23)\n"
        "  --pgood   P                            Gilbert stay-good (0.92)\n"
        "  --pbad    P                            Gilbert stay-bad (0.6)\n"
        "  --lgood   P                            drop prob in GOOD (0)\n"
        "  --lbad    P                            drop prob in BAD (1)\n"
        "  --packet  BITS                         packet size (16384)\n"
        "  --windows N                            buffer windows (100)\n"
        "  --seed    N                            RNG seed (1)\n"
        "  --alpha   A                            Eq.-1 weight (0.5)\n"
        "  --pin     B                            freeze non-critical bound (adaptive)\n"
        "  --retransmit 0|1                       critical retransmission (1)\n"
        "  --estimator ewma|smax                  burst-bound estimator (ewma)\n"
        "  --drop    reactive|predictive          sender shedding policy (reactive)\n"
        "  --startup W                            playout startup, in windows (1.0)\n"
        "  --fec     NUM,DEN[,WINDOW]             RLC repairs: NUM per DEN packets over\n"
        "                                         a WINDOW-packet window (64); with\n"
        "                                         --scheme inorder|spread only\n"
        "  --quiet                                summary only\n"
        "  --help\n");
    std::exit(code);
}

double parse_double(const char* flag, const char* value) {
    char* end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0') {
        std::fprintf(stderr, "espread_cli: bad value for %s: %s\n", flag, value);
        std::exit(2);
    }
    return v;
}

std::size_t parse_size(const char* flag, const char* value) {
    const double v = parse_double(flag, value);
    if (v < 0) {
        std::fprintf(stderr, "espread_cli: %s must be non-negative\n", flag);
        std::exit(2);
    }
    return static_cast<std::size_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
    SessionConfig cfg;
    bool quiet = false;
    double rtt_ms = 23.0;
    std::string csv_path;
    bool fec = false;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") usage(0);
        if (flag == "--quiet") {
            quiet = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "espread_cli: %s needs a value\n", flag.c_str());
            return 2;
        }
        const char* v = argv[++i];
        if (flag == "--scheme") {
            const std::string s = v;
            if (s == "inorder") cfg.scheme = Scheme::kInOrder;
            else if (s == "layered") cfg.scheme = Scheme::kLayeredNoScramble;
            else if (s == "ibo") cfg.scheme = Scheme::kLayeredIbo;
            else if (s == "spread") cfg.scheme = Scheme::kLayeredSpread;
            else usage(2);
        } else if (flag == "--stream") {
            const std::string s = v;
            if (s == "mpeg") cfg.stream.kind = StreamKind::kMpeg;
            else if (s == "mjpeg") cfg.stream.kind = StreamKind::kMjpeg;
            else if (s == "audio") cfg.stream.kind = StreamKind::kAudio;
            else if (s == "trace") cfg.stream.kind = StreamKind::kTraceFile;
            else usage(2);
        } else if (flag == "--trace") {
            cfg.stream.kind = StreamKind::kTraceFile;
            cfg.stream.trace_path = v;
        } else if (flag == "--csv") {
            csv_path = v;
        } else if (flag == "--movie") {
            cfg.stream.movie = v;
        } else if (flag == "--gops") {
            cfg.gops_per_window = parse_size("--gops", v);
        } else if (flag == "--ldus") {
            cfg.stream.ldus_per_window = parse_size("--ldus", v);
        } else if (flag == "--rate") {
            cfg.stream.frame_rate = parse_double("--rate", v);
        } else if (flag == "--bw") {
            cfg.data_link.bandwidth_bps = parse_double("--bw", v);
            cfg.feedback_link.bandwidth_bps = cfg.data_link.bandwidth_bps;
        } else if (flag == "--rtt") {
            rtt_ms = parse_double("--rtt", v);
        } else if (flag == "--pgood") {
            cfg.data_loss.p_good = cfg.feedback_loss.p_good = parse_double("--pgood", v);
        } else if (flag == "--pbad") {
            cfg.data_loss.p_bad = cfg.feedback_loss.p_bad = parse_double("--pbad", v);
        } else if (flag == "--lgood") {
            cfg.data_loss.loss_good = cfg.feedback_loss.loss_good = parse_double("--lgood", v);
        } else if (flag == "--lbad") {
            cfg.data_loss.loss_bad = cfg.feedback_loss.loss_bad = parse_double("--lbad", v);
        } else if (flag == "--packet") {
            cfg.packet_bits = parse_size("--packet", v);
        } else if (flag == "--windows") {
            cfg.num_windows = parse_size("--windows", v);
        } else if (flag == "--seed") {
            cfg.seed = parse_size("--seed", v);
        } else if (flag == "--alpha") {
            cfg.alpha = parse_double("--alpha", v);
        } else if (flag == "--pin") {
            cfg.pinned_bound = parse_size("--pin", v);
        } else if (flag == "--retransmit") {
            cfg.retransmit_critical = parse_size("--retransmit", v) != 0;
        } else if (flag == "--estimator") {
            const std::string s = v;
            if (s == "ewma") cfg.estimator = espread::proto::EstimatorKind::kEwma;
            else if (s == "smax") cfg.estimator = espread::proto::EstimatorKind::kSlidingMax;
            else usage(2);
        } else if (flag == "--drop") {
            const std::string s = v;
            if (s == "reactive") cfg.drop_policy = espread::proto::DropPolicy::kReactive;
            else if (s == "predictive") cfg.drop_policy = espread::proto::DropPolicy::kPredictive;
            else usage(2);
        } else if (flag == "--startup") {
            cfg.playout_startup_windows = parse_double("--startup", v);
        } else if (flag == "--fec") {
            std::size_t num = 0, den = 0, window = cfg.rlc.window_packets;
            if (std::sscanf(v, "%zu,%zu,%zu", &num, &den, &window) < 2) {
                std::fprintf(stderr,
                             "espread_cli: --fec expects NUM,DEN[,WINDOW]\n");
                return 2;
            }
            cfg.rlc = {window, num, den};
            fec = true;
        } else {
            std::fprintf(stderr, "espread_cli: unknown flag %s\n", flag.c_str());
            usage(2);
        }
    }
    if (fec) {
        // The RLC code rides on the in-order or the spread transmission
        // order; the other layered schemes have no coded variant.
        if (cfg.scheme == Scheme::kInOrder) {
            cfg.scheme = Scheme::kRlc;
        } else if (cfg.scheme == Scheme::kLayeredSpread) {
            cfg.scheme = Scheme::kHybridSpreadRlc;
        } else {
            std::fprintf(stderr, "espread_cli: --fec needs --scheme inorder "
                                 "or spread\n");
            return 2;
        }
    }
    cfg.data_link.propagation_delay = espread::sim::from_millis(rtt_ms / 2);
    cfg.feedback_link.propagation_delay = cfg.data_link.propagation_delay;

    SessionResult r;
    try {
        r = run_session(cfg);
        if (!csv_path.empty()) espread::proto::write_csv_file(csv_path, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "espread_cli: %s\n", e.what());
        return 1;
    }

    if (!quiet) {
        std::printf("window |  CLF | lost | undec | drops | retx | pktburst | bound\n");
        std::printf("-------+------+------+-------+-------+------+----------+------\n");
        for (const auto& w : r.windows) {
            std::printf("%6zu | %4zu | %4zu | %5zu | %5zu | %4zu | %8zu | %zu\n",
                        w.window, w.clf, w.lost_ldus, w.undecodable,
                        w.sender_dropped, w.retransmissions,
                        w.actual_packet_burst, w.bound_used);
        }
        std::printf("\n");
    }

    const auto s = r.clf_stats();
    std::printf("scheme=%s windows=%zu ldus/window=%zu seed=%llu\n",
                scheme_name(cfg.scheme), r.windows.size(), cfg.window_ldus(),
                static_cast<unsigned long long>(cfg.seed));
    std::printf("CLF mean=%.3f dev=%.3f max=%.0f | ALF=%.4f | packets sent=%zu "
                "dropped=%zu | acks applied=%zu/%zu\n",
                s.mean(), s.deviation(), s.max(), r.total.alf,
                r.data_channel.sent, r.data_channel.dropped, r.acks_applied,
                r.acks_sent);
    return 0;
}
