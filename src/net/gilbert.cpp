#include "net/gilbert.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace espread::net {

namespace {

constexpr std::uint64_t kAbsorbed = std::numeric_limits<std::uint64_t>::max();

/// floor(log1p(-m 2^-53) / log_stay): the sojourn's packets beyond the
/// first.  The draw is scaled exactly as Rng::uniform() scales it.
double extra_packets(double log_stay, std::uint64_t m) noexcept {
    return std::floor(std::log1p(-(static_cast<double>(m) * 0x1.0p-53)) /
                      log_stay);
}

/// T_k: the smallest 53-bit draw with extra_packets >= k, or kDrawSpan if
/// none.  The closed form 1 - stay^k lands within a grid step or two of
/// it; the walk settles the exact boundary of the expression sampled.
std::uint64_t threshold_for(double log_stay, std::size_t k) {
    constexpr std::uint64_t kSpan = GilbertModel::kDrawSpan;
    const double kd = static_cast<double>(k);
    const auto reaches = [&](std::uint64_t m) {
        return extra_packets(log_stay, m) >= kd;
    };
    const double guess = std::ceil(-std::expm1(kd * log_stay) * 0x1.0p53);
    std::uint64_t m = guess <= 0.0              ? 0
                      : guess >= 0x1.0p53 ? kSpan
                                          : static_cast<std::uint64_t>(guess);
    if (m < kSpan && !reaches(m)) {
        do ++m; while (m < kSpan && !reaches(m));
    } else {
        while (m > 0 && reaches(m - 1)) --m;
    }
    return m;
}

GilbertModel::StateModel build_state(
    double stay, double loss,
    std::array<std::uint64_t, GilbertModel::kTableSize>& threshold,
    std::array<std::uint8_t, GilbertModel::kBuckets>& start) {
    GilbertModel::StateModel s;
    s.loss = loss;
    s.classic = loss <= 0.0 || loss >= 1.0;
    s.lost = loss >= 1.0;
    if (stay <= 0.0) {
        s.fixed_dwell = 1;  // leaves after every packet
    } else if (stay >= 1.0) {
        s.fixed_dwell = kAbsorbed;
    } else {
        s.log_stay = std::log(stay);
        for (std::size_t k = 1; k <= GilbertModel::kTableSize; ++k) {
            threshold[k - 1] = threshold_for(s.log_stay, k);
        }
        // The thresholds ascend, so one merge pass counts those at or
        // below each bucket's lower edge.
        std::size_t below = 0;
        for (std::size_t j = 0; j < GilbertModel::kBuckets; ++j) {
            const std::uint64_t edge = std::uint64_t{j}
                                       << GilbertModel::kBucketShift;
            while (below < GilbertModel::kTableSize &&
                   threshold[below] <= edge) {
                ++below;
            }
            start[j] = static_cast<std::uint8_t>(below);
        }
    }
    return s;
}

}  // namespace

GilbertModel::GilbertModel(GilbertParams params) : params_(params) {
    const auto valid = [](double p) { return p >= 0.0 && p <= 1.0; };
    if (!valid(params_.p_good) || !valid(params_.p_bad) ||
        !valid(params_.loss_good) || !valid(params_.loss_bad)) {
        throw std::invalid_argument("GilbertLoss: probabilities must be in [0, 1]");
    }
    constexpr auto kGood = static_cast<std::size_t>(GilbertState::kGood);
    constexpr auto kBad = static_cast<std::size_t>(GilbertState::kBad);
    states_[kGood] =
        build_state(params_.p_good, params_.loss_good, threshold_[kGood],
                    start_[kGood]);
    states_[kBad] = build_state(params_.p_bad, params_.loss_bad,
                                threshold_[kBad], start_[kBad]);
}

const GilbertModel& GilbertModel::intern(const GilbertParams& params) {
    using Key = std::array<std::uint64_t, 4>;
    static std::mutex mu;
    static std::map<Key, GilbertModel> models;  // nodes never move
    const Key key{std::bit_cast<std::uint64_t>(params.p_good),
                  std::bit_cast<std::uint64_t>(params.p_bad),
                  std::bit_cast<std::uint64_t>(params.loss_good),
                  std::bit_cast<std::uint64_t>(params.loss_bad)};
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = models.find(key);
    if (it != models.end()) return it->second;
    return models.emplace(key, GilbertModel(params)).first->second;
}

std::uint64_t GilbertModel::formula_dwell(double log_stay,
                                          std::uint64_t m) noexcept {
    const double extra = extra_packets(log_stay, m);
    constexpr double kCap = 9.0e18;  // stays below uint64 range
    if (!(extra < kCap)) return kAbsorbed;
    return 1 + static_cast<std::uint64_t>(extra);
}

GilbertLoss::GilbertLoss(GilbertParams params, sim::Rng rng)
    : model_(&GilbertModel::intern(params)), rng_(std::move(rng)) {}

double GilbertLoss::stationary_loss(const GilbertParams& p) noexcept {
    const double to_bad = 1.0 - p.p_good;
    const double to_good = 1.0 - p.p_bad;
    if (to_bad + to_good == 0.0) return p.loss_good;  // stays GOOD forever
    const double pi_bad = to_bad / (to_bad + to_good);
    return pi_bad * p.loss_bad + (1.0 - pi_bad) * p.loss_good;
}

double GilbertLoss::mean_burst_length(const GilbertParams& p) noexcept {
    if (p.p_bad >= 1.0) return 0.0;  // never leaves BAD once entered
    return 1.0 / (1.0 - p.p_bad);
}

}  // namespace espread::net
