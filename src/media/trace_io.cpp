#include "media/trace_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace espread::media {

namespace {

FrameType type_from_letter(char c, std::size_t line_no) {
    switch (c) {
        case 'I': return FrameType::kI;
        case 'P': return FrameType::kP;
        case 'B': return FrameType::kB;
        case 'J': return FrameType::kIndependent;
        default:
            throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                        ": unknown frame type letter");
    }
}

}  // namespace

std::vector<Frame> read_trace(std::istream& in) {
    std::vector<Frame> frames;
    std::string line;
    std::size_t line_no = 0;
    std::size_t gop = 0;
    std::size_t pos_in_gop = 0;
    bool seen_any = false;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and blank lines.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream ls{line};
        if ((ls >> std::ws).eof()) continue;  // blank/comment-only line
        // Anything else must be a frame: a frame number that does not
        // parse (or overflows) is an error, not a blank line.
        long long file_index = 0;
        std::string type_token;
        long long size_bits = 0;
        if (!(ls >> file_index >> type_token >> size_bits)) {
            throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                        ": expected '<frame#> <type> <bits>'");
        }
        std::string extra;
        if (ls >> extra) {
            throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                        ": trailing fields");
        }
        if (type_token.size() != 1) {
            throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                        ": frame type must be one letter");
        }
        if (size_bits <= 0) {
            throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                        ": frame size must be positive");
        }
        Frame f;
        f.type = type_from_letter(type_token[0], line_no);
        f.size_bits = static_cast<std::size_t>(size_bits);
        if (f.type == FrameType::kI && seen_any) {
            ++gop;
            pos_in_gop = 0;
        }
        f.index = frames.size();
        f.gop = gop;
        f.pos_in_gop = pos_in_gop++;
        seen_any = true;
        frames.push_back(f);
    }
    return frames;
}

std::vector<Frame> read_trace_file(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error("read_trace_file: cannot open " + path);
    return read_trace(in);
}

void write_trace(std::ostream& out, const std::vector<Frame>& frames) {
    out << "# espread frame trace: <frame#> <type> <size-bits>\n";
    for (const Frame& f : frames) {
        out << f.index << ' ' << frame_type_char(f.type) << ' ' << f.size_bits
            << '\n';
    }
}

void write_trace_file(const std::string& path, const std::vector<Frame>& frames) {
    std::ofstream out{path};
    if (!out) throw std::runtime_error("write_trace_file: cannot open " + path);
    write_trace(out, frames);
    if (!out) throw std::runtime_error("write_trace_file: write failed: " + path);
}

GopPattern infer_gop_pattern(const std::vector<Frame>& frames) {
    if (frames.empty()) {
        throw std::invalid_argument("infer_gop_pattern: empty trace");
    }
    if (frames.front().type != FrameType::kI) {
        throw std::invalid_argument("infer_gop_pattern: trace must start with I");
    }
    // Pattern of GOP 0.
    std::string pattern;
    for (const Frame& f : frames) {
        if (f.gop > 0) break;
        pattern += frame_type_char(f.type);
    }
    const GopPattern gop = GopPattern::parse(pattern);
    // Every GOP must repeat the pattern; the final GOP may end early but
    // what it contains must still match position for position.
    for (const Frame& f : frames) {
        if (f.pos_in_gop >= gop.size()) {
            throw std::invalid_argument("infer_gop_pattern: irregular GOP length");
        }
        if (f.type != gop.type_at(f.pos_in_gop)) {
            throw std::invalid_argument("infer_gop_pattern: irregular GOP pattern");
        }
    }
    return gop;
}

}  // namespace espread::media
