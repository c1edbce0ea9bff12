#include "media/gop.hpp"

#include <stdexcept>
#include <utility>

namespace espread::media {

GopPattern GopPattern::parse(std::string_view pattern) {
    if (pattern.empty()) throw std::invalid_argument("GopPattern: empty pattern");
    std::vector<FrameType> types;
    types.reserve(pattern.size());
    for (const char c : pattern) {
        switch (c) {
            case 'I': types.push_back(FrameType::kI); break;
            case 'P': types.push_back(FrameType::kP); break;
            case 'B': types.push_back(FrameType::kB); break;
            default:
                throw std::invalid_argument("GopPattern: invalid character in pattern");
        }
    }
    if (types.front() != FrameType::kI) {
        throw std::invalid_argument("GopPattern: pattern must start with I");
    }
    for (std::size_t i = 1; i < types.size(); ++i) {
        if (types[i] == FrameType::kI) {
            throw std::invalid_argument("GopPattern: only one I frame per GOP");
        }
    }
    return GopPattern{std::move(types)};
}

GopPattern GopPattern::standard(std::size_t gop_size) {
    if (gop_size == 0 || (gop_size != 1 && gop_size % 3 != 0)) {
        throw std::invalid_argument(
            "GopPattern::standard: size must be 1 or a multiple of 3");
    }
    // I BB (P BB)* — anchors every third frame.
    std::string normalized = "I";
    std::size_t remaining = gop_size - 1;
    bool first = true;
    while (remaining > 0) {
        if (!first) {
            normalized += 'P';
            --remaining;
            if (remaining == 0) break;
        }
        first = false;
        normalized += 'B';
        --remaining;
        if (remaining > 0) {
            normalized += 'B';
            --remaining;
        }
    }
    return parse(normalized);
}

GopPattern::GopPattern(std::vector<FrameType> types) : types_(std::move(types)) {
    for (std::size_t i = 0; i < types_.size(); ++i) {
        if (types_[i] != FrameType::kB) {
            anchor_positions_.push_back(i);
            ++anchors_;
        }
    }
}

FrameType GopPattern::type_at(std::size_t pos) const {
    if (pos >= types_.size()) throw std::out_of_range("GopPattern::type_at");
    return types_[pos];
}

}  // namespace espread::media
