// Deterministic random-number generation for all espread simulations.
//
// Every source of randomness in the library flows through sim::Rng so that
// a (seed) pair fully determines a simulation run, independent of the
// standard-library implementation (std::uniform_real_distribution et al. are
// not bit-portable across stdlibs).  The generator is xoshiro256**, seeded
// via SplitMix64.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace espread::sim {

/// Deterministic, splittable pseudo-random generator (xoshiro256**).
///
/// Not cryptographically secure; intended for simulation workloads.
/// Satisfies the UniformRandomBitGenerator requirements so it can also be
/// handed to standard algorithms (e.g. std::shuffle) when bit-portability
/// of the *consumer* does not matter.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four 64-bit words of state from `seed` using SplitMix64,
    /// which guarantees a non-zero, well-mixed state for any seed value.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    /// Next raw 64-bit value.
    result_type operator()() noexcept { return next_u64(); }

    /// Next raw 64-bit value.  Inline: the engine's Gilbert chains call
    /// it once per sojourn.
    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1) with 53 bits of precision.
    double uniform() noexcept;

    /// Uniform integer in the inclusive range [lo, hi].  Requires lo <= hi.
    /// Uses rejection sampling, so the result is exactly uniform.
    std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) noexcept;

    /// Bernoulli trial: true with probability p (clamped to [0, 1]).
    bool bernoulli(double p) noexcept;

    /// Normally distributed value (Box–Muller; consumes two uniforms).
    double normal(double mean, double stddev) noexcept;

    /// Lognormally distributed value; mu/sigma are the parameters of the
    /// underlying normal (i.e. log X ~ N(mu, sigma^2)).
    double lognormal(double mu, double sigma) noexcept;

    /// Geometric distribution: number of failures before the first success
    /// with success probability p in (0, 1].  Returns values in {0, 1, ...}.
    std::uint64_t geometric(double p) noexcept;

    /// Derives an independent child generator.  Children produced by
    /// distinct calls (or distinct stream ids) are statistically
    /// independent streams; used to give each simulated component its own
    /// randomness without cross-coupling.
    Rng split(std::uint64_t stream_id) noexcept;

private:
    std::array<std::uint64_t, 4> state_{};
};

/// The `index`-th element of the SplitMix64 stream anchored at `base`
/// (0-based), computed by random access rather than iteration.  Used to
/// derive per-trial seeds for Monte-Carlo experiments: the mapping depends
/// only on (base, index), so a trial's seed — and therefore its entire
/// simulation — is identical no matter which thread runs it or in what
/// order trials are scheduled.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

}  // namespace espread::sim
