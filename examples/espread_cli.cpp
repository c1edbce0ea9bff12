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
#include <array>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

#include "exp/flags.hpp"
#include "protocol/report.hpp"
#include "protocol/session.hpp"

using espread::proto::run_session;
using espread::proto::Scheme;
using espread::proto::scheme_name;
using espread::proto::SessionConfig;
using espread::proto::SessionResult;
using espread::proto::StreamKind;

namespace {

const char kUsage[] =
    "usage: espread_cli [flags]\n"
    "  --scheme  inorder|layered|ibo|spread   transmission scheme (spread)\n"
    "  --stream  mpeg|mjpeg|audio|trace       stream kind (mpeg)\n"
    "  --movie   NAME                         MPEG trace (Jurassic Park)\n"
    "  --frames  PATH                         frame-trace file (implies --stream trace)\n"
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
    "  --drop    reactive|predictive          sender shedding policy (reactive)\n"
    "  --startup W                            playout startup, in windows (1.0)\n"
    "  --fec     NUM,DEN[,WINDOW]             RLC repairs: NUM per DEN packets over\n"
    "                                         a WINDOW-packet window (64); with\n"
    "                                         --scheme inorder|spread only\n"
    "  --quiet                                summary only\n"
    "  --help\n";

[[noreturn]] void bad_value(const char* flag, const std::string& value) {
    std::fprintf(stderr, "espread_cli: %s: unknown value '%s'\n", flag,
                 value.c_str());
    std::exit(2);
}

/// Position of `value` among `names`; exits 2 naming the flag otherwise.
std::size_t pick(const char* flag, const std::string& value,
                 std::initializer_list<const char*> names) {
    std::size_t i = 0;
    for (const char* name : names) {
        if (value == name) return i;
        ++i;
    }
    bad_value(flag, value);
}

/// NUM,DEN[,WINDOW] of --fec into `rlc`; WINDOW keeps its default when
/// left out.
bool parse_fec(std::string_view spec, espread::proto::RlcConfig& rlc) {
    std::size_t* terms[] = {&rlc.overhead_num, &rlc.overhead_den,
                            &rlc.window_packets};
    for (std::size_t n = 0; n < 3; ++n) {
        const std::size_t comma = spec.find(',');
        const auto term = espread::exp::parse_count(spec.substr(0, comma));
        if (!term) return false;
        *terms[n] = *term;
        if (comma == std::string_view::npos) return n >= 1;
        spec.remove_prefix(comma + 1);
    }
    return false;  // more than three terms
}

}  // namespace

int main(int argc, char** argv) {
    using namespace espread::exp;
    SessionConfig cfg;
    bool help = false;
    bool quiet = false;
    std::string scheme = "spread";
    std::string stream;
    std::string drop = "reactive";
    std::string fec_spec;
    std::string csv_path;
    double bw = cfg.data_link.bandwidth_bps;
    double rtt_ms = 23.0;
    espread::net::GilbertParams& loss = cfg.data_loss;  // both paths
    std::size_t seed = cfg.seed;
    std::size_t retransmit = 1;
    // Window sizes stop far past the paper's (2 GOPs, 24 LDUs).
    const Flag flags[] = {
        {"--help", Switch{&help}},
        {"--quiet", Switch{&quiet}},
        {"--scheme", Text{&scheme}},
        {"--stream", Text{&stream}},
        {"--movie", Text{&cfg.stream.movie}},
        {"--frames", Text{&cfg.stream.trace_path}},
        {"--csv", Text{&csv_path}},
        {"--gops", Count{&cfg.gops_per_window, 1, 256}},
        {"--ldus", Count{&cfg.stream.ldus_per_window, 1, 4096}},
        {"--rate", Number{&cfg.stream.frame_rate, 0.0, 1e6}},
        {"--bw", Number{&bw, 0.0, 1e12}},
        {"--rtt", Number{&rtt_ms, 0.0, 1e6}},
        {"--pgood", Number{&loss.p_good, 0.0, 1.0}},
        {"--pbad", Number{&loss.p_bad, 0.0, 1.0}},
        {"--lgood", Number{&loss.loss_good, 0.0, 1.0}},
        {"--lbad", Number{&loss.loss_bad, 0.0, 1.0}},
        {"--packet", Count{&cfg.packet_bits, 1, std::size_t{1} << 30}},
        {"--windows", Count{&cfg.num_windows, 1, kMaxWindows}},
        {"--seed", Count{&seed}},
        {"--alpha", Number{&cfg.alpha, 0.0, 1.0}},
        {"--pin", Count{&cfg.pinned_bound, 0, 4096}},
        {"--retransmit", Count{&retransmit, 0, 1}},
        {"--drop", Text{&drop}},
        {"--startup", Number{&cfg.playout_startup_windows, 0.0, 1e6}},
        {"--fec", Text{&fec_spec}},
    };
    parse_flags_or_exit(argc, argv, flags);
    if (help) {
        std::fputs(kUsage, stdout);
        return 0;
    }

    cfg.scheme = std::array{Scheme::kInOrder, Scheme::kLayeredNoScramble,
                            Scheme::kLayeredIbo, Scheme::kLayeredSpread}
        [pick("--scheme", scheme, {"inorder", "layered", "ibo", "spread"})];
    if (!cfg.stream.trace_path.empty()) {
        cfg.stream.kind = StreamKind::kTraceFile;
    } else if (!stream.empty()) {
        cfg.stream.kind =
            std::array{StreamKind::kMpeg, StreamKind::kMjpeg,
                       StreamKind::kAudio, StreamKind::kTraceFile}
                [pick("--stream", stream, {"mpeg", "mjpeg", "audio", "trace"})];
    }
    cfg.drop_policy = std::array{espread::proto::DropPolicy::kReactive,
                                 espread::proto::DropPolicy::kPredictive}
        [pick("--drop", drop, {"reactive", "predictive"})];
    cfg.data_link.bandwidth_bps = cfg.feedback_link.bandwidth_bps = bw;
    cfg.feedback_loss = loss;
    cfg.seed = seed;
    cfg.retransmit_critical = retransmit != 0;
    const bool fec = !fec_spec.empty();
    if (fec && !parse_fec(fec_spec, cfg.rlc)) bad_value("--fec", fec_spec);
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
