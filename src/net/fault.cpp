#include "net/fault.hpp"

#include <stdexcept>
#include <string>

namespace espread::net {

bool ImpairmentConfig::active() const noexcept {
    if (reorder_rate > 0.0 || duplicate_rate > 0.0 || corrupt_rate > 0.0 ||
        jitter_rate > 0.0) {
        return true;
    }
    for (const Blackout& b : blackouts) {
        if (b.to > b.from) return true;
    }
    return false;
}

void ImpairmentConfig::validate() const {
    const auto check_rate = [](double rate, const char* what) {
        if (rate < 0.0 || rate > 1.0) {
            throw std::invalid_argument(std::string("ImpairmentConfig: ") +
                                        what + " must be in [0, 1]");
        }
    };
    check_rate(reorder_rate, "reorder_rate");
    check_rate(duplicate_rate, "duplicate_rate");
    check_rate(corrupt_rate, "corrupt_rate");
    check_rate(jitter_rate, "jitter_rate");
    if (corrupt_rate > 0.0 && corrupt_max_bit_flips == 0) {
        throw std::invalid_argument(
            "ImpairmentConfig: corrupt_max_bit_flips must be >= 1");
    }
    if (jitter_max < 0) {
        throw std::invalid_argument(
            "ImpairmentConfig: jitter_max must be non-negative");
    }
    for (const Blackout& b : blackouts) {
        if (b.to < b.from) {
            throw std::invalid_argument(
                "ImpairmentConfig: blackout interval must have to >= from");
        }
    }
}

}  // namespace espread::net
