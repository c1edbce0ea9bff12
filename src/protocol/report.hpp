// Session result export: CSV (per-window rows), a CSV event timeline from
// a trace recording, and a compact text summary, for plotting the paper's
// figures with external tooling.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"
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

/// Writes a trace recording as a flat CSV timeline sorted by time:
/// time_s,actor,event,window,seq,arg,v0,v1
/// One row per TraceEvent; actor/event are the symbolic names.
void write_event_csv(std::ostream& out, std::vector<obs::TraceEvent> events);

/// One-paragraph human summary (mean/dev CLF, ALF, channel stats, required
/// start-up delay).
std::string summarize(const SessionResult& result);

}  // namespace espread::proto
