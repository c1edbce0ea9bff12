// Session result export: CSV (per-window rows) and a compact text summary,
// for plotting the paper's figures with external tooling.
#pragma once

#include <iosfwd>
#include <string>

#include "protocol/session.hpp"

namespace espread::proto {

/// Writes one header row plus one row per buffer window:
/// window,clf,lost_ldus,alf,undecodable,sender_dropped,retransmissions,
/// actual_packet_burst,bound_used,playout_clf
/// (playout_clf is the deadline-judged CLF; windows beyond the recorded
/// playout vector write an empty field).
void write_csv(std::ostream& out, const SessionResult& result);

/// Convenience file variant; throws std::runtime_error on I/O failure.
void write_csv_file(const std::string& path, const SessionResult& result);

/// One-paragraph human summary (mean/dev CLF, ALF, channel stats, required
/// start-up delay).
std::string summarize(const SessionResult& result);

}  // namespace espread::proto
