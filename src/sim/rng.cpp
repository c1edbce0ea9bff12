#include "sim/rng.hpp"

#include <bit>
#include <cmath>

namespace espread::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept {
    const std::uint64_t range = hi - lo;  // inclusive width - 1
    if (range == max()) return next_u64();
    const std::uint64_t span = range + 1;
    // Rejection sampling over the largest multiple of `span` that fits.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return lo + v % span;
}

double Rng::normal(double mean, double stddev) noexcept {
    double u1 = uniform();
    while (u1 == 0.0) u1 = uniform();
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::geometric(double p) noexcept {
    if (p >= 1.0) return 0;
    // Draws on a local copy, written back once: the state stays in
    // registers across the loop instead of round-tripping through memory
    // on every trial.
    Rng r = *this;
    std::uint64_t n = 0;
    while (!r.bernoulli(p)) ++n;
    *this = r;
    return n;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
    // splitmix64 advances its state by the golden-ratio constant per draw,
    // so the index-th output is the finalizer applied to
    // base + (index + 1) * GOLDEN — random access into the same stream the
    // iterative form produces.
    std::uint64_t s = base + index * 0x9E3779B97F4A7C15ULL;
    return splitmix64(s);
}

Rng Rng::split(std::uint64_t stream_id) noexcept {
    // Mix the current state with the stream id through SplitMix64 to derive
    // a decorrelated child seed.
    std::uint64_t s = state_[0] ^ std::rotl(state_[2], 29) ^ (stream_id * 0xD1342543DE82EF95ULL);
    return Rng{splitmix64(s)};
}

}  // namespace espread::sim
