// Reading and writing frame-size traces in the classic text format of the
// MPEG trace archives the paper used (one frame per line:
// "<frame#> <type-letter> <size-bits>", '#'-prefixed comment lines).
//
// The paper's own traces came from ftp://gaia.cs.umass.edu (long gone); if
// a user has any archive trace in this format, it can drive the simulator
// directly instead of the synthetic generator.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "media/gop.hpp"
#include "media/ldu.hpp"

namespace espread::media {

/// Parses a trace stream.  Frame numbers in the file are informational
/// (re-indexed 0..n-1 on load); the type letter must be I, P, B or J.
/// GOP coordinates are reconstructed from the I-frame positions (a new GOP
/// starts at every I; leading non-I frames belong to GOP 0).  Blank and
/// comment-only lines are skipped; every other line must be a frame.
/// Throws std::invalid_argument with a line number on malformed input,
/// including a frame number or size that does not fit a 64-bit integer.
std::vector<Frame> read_trace(std::istream& in);

/// Convenience: loads from a file path; throws std::runtime_error when the
/// file cannot be opened.
std::vector<Frame> read_trace_file(const std::string& path);

/// Writes frames in the same format (with a generator comment header).
void write_trace(std::ostream& out, const std::vector<Frame>& frames);

/// Convenience: writes to a file path; throws std::runtime_error on I/O
/// failure.
void write_trace_file(const std::string& path, const std::vector<Frame>& frames);

/// Checks that `frames` repeat one GOP pattern consistently and returns
/// it; throws std::invalid_argument if the trace is irregular (the layered
/// protocol requires a fixed pattern, §3.2's "fixed spacing ... often
/// used" assumption).
GopPattern infer_gop_pattern(const std::vector<Frame>& frames);

}  // namespace espread::media
