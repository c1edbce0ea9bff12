// GF(256) field axioms (exhaustive over all 256x256 pairs) and the
// sliding-window RLC encoder/decoder invariant suite (ISSUE 8):
//   - table-driven multiply agrees with the bitwise reference everywhere,
//   - mul/div/inverse round-trip exhaustively, distributivity and
//     associativity hold (exhaustive resp. sampled),
//   - received rank never decreases,
//   - decode => re-encode reproduces every repair payload,
//   - rank-only mode takes the exact decode decisions of payload mode,
//   - releasing the decoder's logs as they are read loses no entry,
//   - window expiry resolves undecoded symbols as losses and the in-order
//     delivery log stays monotone with correct timestamps,
//   - recorded digests pin every observable decode decision in both modes.
#include "fec/gf256.hpp"
#include "fec/rlc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include "sim/rng.hpp"

namespace {

using espread::fec::RlcDecoder;
using espread::fec::RlcEncoder;
using espread::fec::RepairSymbol;
using espread::fec::expand_coefficients;
using espread::fec::gf_add;
using espread::fec::gf_inv;
using espread::fec::gf_mul_ref;
using espread::fec::gf_mul_row;
using espread::fec::gf_mul_row_add;
using espread::sim::Rng;

// ---------------------------------------------------------------------------
// Field axioms, on the bitwise reference product the row kernels' nibble
// slices are built from (RowKernelsMatchScalarReference checks the kernels).

TEST(Gf256, MultiplicationIsCommutativeExhaustively) {
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = a; b < 256; ++b) {
            ASSERT_EQ(gf_mul_ref(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                      gf_mul_ref(static_cast<std::uint8_t>(b),
                             static_cast<std::uint8_t>(a)));
        }
    }
}

TEST(Gf256, InverseRoundTripExhaustively) {
    for (unsigned a = 1; a < 256; ++a) {
        const std::uint8_t inv = gf_inv(static_cast<std::uint8_t>(a));
        ASSERT_NE(inv, 0);
        ASSERT_EQ(gf_mul_ref(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
        ASSERT_EQ(gf_inv(inv), a) << "a=" << a;
    }
}

TEST(Gf256, IdentityAndZeroLawsExhaustively) {
    for (unsigned a = 0; a < 256; ++a) {
        const auto v = static_cast<std::uint8_t>(a);
        ASSERT_EQ(gf_mul_ref(v, 1), v);
        ASSERT_EQ(gf_mul_ref(1, v), v);
        ASSERT_EQ(gf_mul_ref(v, 0), 0);
        ASSERT_EQ(gf_mul_ref(0, v), 0);
        ASSERT_EQ(gf_add(v, v), 0);  // characteristic 2
        ASSERT_EQ(gf_add(v, 0), v);
    }
}

TEST(Gf256, DistributivityHoldsExhaustively) {
    // All 2^24 triples: a*(b+c) == a*b + a*c.
    for (unsigned a = 0; a < 256; ++a) {
        const auto av = static_cast<std::uint8_t>(a);
        for (unsigned b = 0; b < 256; ++b) {
            const auto bv = static_cast<std::uint8_t>(b);
            const std::uint8_t ab = gf_mul_ref(av, bv);
            for (unsigned c = 0; c < 256; ++c) {
                const auto cv = static_cast<std::uint8_t>(c);
                ASSERT_EQ(gf_mul_ref(av, gf_add(bv, cv)),
                          gf_add(ab, gf_mul_ref(av, cv)))
                    << "a=" << a << " b=" << b << " c=" << c;
            }
        }
    }
}

TEST(Gf256, AssociativitySampled) {
    Rng rng{0xA550C};
    for (int i = 0; i < 200'000; ++i) {
        const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        ASSERT_EQ(gf_mul_ref(gf_mul_ref(a, b), c), gf_mul_ref(a, gf_mul_ref(b, c)));
    }
}

TEST(Gf256, RowKernelsMatchScalarReference) {
    Rng rng{0x90F};
    for (int iter = 0; iter < 64; ++iter) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform_int(0, 300));
        const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        std::vector<std::uint8_t> dst(n), src(n), expect(n);
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            src[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            expect[i] = gf_add(dst[i], gf_mul_ref(c, src[i]));
        }
        std::vector<std::uint8_t> got = dst;
        gf_mul_row_add(got.data(), src.data(), n, c);
        EXPECT_EQ(got, expect) << "c=" << static_cast<int>(c);

        std::vector<std::uint8_t> scaled = dst;
        gf_mul_row(scaled.data(), n, c);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(scaled[i], gf_mul_ref(c, dst[i]));
        }
    }
}

// Every coefficient at lengths around the kernels' 16-byte blocks: whole
// blocks, a block plus a byte tail, and a tail alone.
TEST(Gf256, RowKernelsMatchForEveryCoefficient) {
    Rng rng{0x16B};
    for (const std::size_t n : {std::size_t{15}, std::size_t{16}, std::size_t{33}, std::size_t{64}}) {
        std::vector<std::uint8_t> dst(n), src(n);
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            src[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        for (unsigned c = 0; c < 256; ++c) {
            const auto k = static_cast<std::uint8_t>(c);
            std::vector<std::uint8_t> sum = dst;
            std::vector<std::uint8_t> scaled = dst;
            gf_mul_row_add(sum.data(), src.data(), n, k);
            gf_mul_row(scaled.data(), n, k);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(sum[i], gf_add(dst[i], gf_mul_ref(k, src[i]))) << "c=" << c << " n=" << n;
                ASSERT_EQ(scaled[i], gf_mul_ref(k, dst[i])) << "c=" << c << " n=" << n;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coefficient expansion

TEST(Coefficients, ExpansionIsDeterministicAndNeverAllZero) {
    std::uint8_t a[espread::fec::kMaxWindow];
    std::uint8_t b[espread::fec::kMaxWindow];
    Rng rng{42};
    for (int iter = 0; iter < 2'000; ++iter) {
        const std::uint64_t cseed = rng.next_u64();
        const std::size_t count =
            static_cast<std::size_t>(rng.uniform_int(1, 255));
        expand_coefficients(cseed, count, a);
        expand_coefficients(cseed, count, b);
        bool all_zero = true;
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(a[i], b[i]);
            if (a[i] != 0) all_zero = false;
        }
        EXPECT_FALSE(all_zero);
    }
}

// ---------------------------------------------------------------------------
// Encoder / decoder invariants

constexpr std::size_t kSym = 24;  ///< payload bytes per symbol in these tests

std::vector<std::uint8_t> random_symbol(Rng& rng) {
    std::vector<std::uint8_t> s(kSym);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return s;
}

/// Recomputes a repair payload from the original source symbols; the
/// "decode => re-encode reproduces every repair packet" oracle.
std::vector<std::uint8_t> recombine(
    const RepairSymbol& rep,
    const std::vector<std::vector<std::uint8_t>>& sources) {
    std::uint8_t coeffs[espread::fec::kMaxWindow];
    expand_coefficients(rep.cseed, rep.count, coeffs);
    std::vector<std::uint8_t> out(kSym, 0);
    for (std::size_t j = 0; j < rep.count; ++j) {
        gf_mul_row_add(out.data(),
                       sources[static_cast<std::size_t>(rep.base) + j].data(),
                       kSym, coeffs[j]);
    }
    return out;
}

TEST(RlcEncoder, RepairsAreWindowCombinationsOfTheSources) {
    Rng rng{7};
    RlcEncoder enc(8, kSym, 123);
    std::vector<std::vector<std::uint8_t>> sources;
    for (int i = 0; i < 40; ++i) {
        sources.push_back(random_symbol(rng));
        enc.add_source(sources.back().data(), kSym);
        if (i % 3 == 2) {
            const RepairSymbol rep = enc.make_repair();
            EXPECT_LE(rep.count, 8u);
            EXPECT_EQ(rep.base + rep.count, enc.next_index());
            EXPECT_EQ(recombine(rep, sources), rep.payload);
        }
    }
}

/// Drives encoder + lossy channel + decoder; checks rank monotonicity and
/// payload correctness throughout.  Returns the decoder for extra checks.
struct LossyRun {
    std::size_t losses = 0;
    std::size_t recovered = 0;
    std::size_t repairs = 0;
};

LossyRun run_lossy(std::uint64_t seed, double loss_p, std::size_t window,
                   std::size_t n_sources, std::size_t repair_every,
                   RlcDecoder& dec) {
    Rng rng{seed};
    RlcEncoder enc(window, kSym, seed ^ 0xC0DE);
    std::vector<std::vector<std::uint8_t>> sources;
    LossyRun out;
    double t = 0.0;
    std::size_t last_rank = 0;
    for (std::size_t i = 0; i < n_sources; ++i) {
        sources.push_back(random_symbol(rng));
        const std::uint64_t idx = enc.add_source(sources.back().data(), kSym);
        t += 1.0;
        if (rng.bernoulli(loss_p)) {
            ++out.losses;
        } else {
            dec.add_source(idx, sources.back().data(), kSym, t);
        }
        EXPECT_GE(dec.rank(), last_rank) << "rank decreased";
        last_rank = dec.rank();
        if ((i + 1) % repair_every == 0) {
            const RepairSymbol rep = enc.make_repair();
            ++out.repairs;
            t += 0.25;
            const std::size_t before = dec.decoded().size();
            dec.add_repair(rep.base, rep.count, rep.cseed,
                           rep.payload.data(), rep.payload.size(), t);
            EXPECT_GE(dec.rank(), last_rank) << "rank decreased";
            last_rank = dec.rank();
            // Every newly decoded symbol must reproduce the original.
            for (std::size_t d = before; d < dec.decoded().size(); ++d) {
                const std::uint64_t di = dec.decoded()[d].index;
                const std::uint8_t* got = dec.payload(di);
                EXPECT_NE(got, nullptr);
                if (got == nullptr) continue;
                EXPECT_EQ(std::vector<std::uint8_t>(got, got + kSym),
                          sources[static_cast<std::size_t>(di)])
                    << "decoded payload mismatch at " << di;
                ++out.recovered;
            }
        }
    }
    dec.close(t + 1.0);
    return out;
}

TEST(RlcDecoder, RecoversLossesAndNeverDecreasesRank) {
    RlcDecoder dec(16, kSym);
    const LossyRun r = run_lossy(0xBEEF, 0.15, 16, 160, 4, dec);
    EXPECT_GT(r.losses, 0u);
    EXPECT_GT(r.recovered, 0u);
    // 25% repair overhead against 15% loss: most losses are recoverable.
    EXPECT_GE(r.recovered * 2, r.losses);
    EXPECT_EQ(r.recovered, dec.decoded().size());
    // Everything resolved at close: delivered + lost covers all sources.
    EXPECT_EQ(dec.in_order_log().size(), 160u);
    EXPECT_EQ(dec.symbols_lost() + dec.sources_received() + r.recovered, 160u);
}

TEST(RlcDecoder, CleanChannelDecodesNothingAndFlagsRepairsRedundant) {
    RlcDecoder dec(16, kSym);
    const LossyRun r = run_lossy(0x5EED, 0.0, 16, 64, 4, dec);
    EXPECT_EQ(r.losses, 0u);
    EXPECT_EQ(dec.decoded().size(), 0u);
    EXPECT_EQ(dec.repairs_redundant(), r.repairs);
    EXPECT_EQ(dec.rank(), 64u);
}

TEST(RlcDecoder, RankOnlyModeTakesIdenticalDecodeDecisions) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 0xFACEull}) {
        RlcDecoder full(12, kSym);
        RlcDecoder rank_only(12, 0);

        Rng rng{seed};
        RlcEncoder enc(12, kSym, seed);
        std::vector<std::vector<std::uint8_t>> sources;
        double t = 0.0;
        for (std::size_t i = 0; i < 120; ++i) {
            sources.push_back(random_symbol(rng));
            const std::uint64_t idx =
                enc.add_source(sources.back().data(), kSym);
            t += 1.0;
            if (!rng.bernoulli(0.2)) {
                full.add_source(idx, sources.back().data(), kSym, t);
                rank_only.add_source(idx, nullptr, 0, t);
            }
            if (i % 3 == 0) {
                const RepairSymbol rep = enc.make_repair();
                t += 0.5;
                full.add_repair(rep.base, rep.count, rep.cseed,
                                rep.payload.data(), rep.payload.size(), t);
                rank_only.add_repair(rep.base, rep.count, rep.cseed, nullptr,
                                     0, t);
            }
        }
        full.close(t);
        rank_only.close(t);

        EXPECT_EQ(full.rank(), rank_only.rank());
        EXPECT_EQ(full.repairs_redundant(), rank_only.repairs_redundant());
        EXPECT_EQ(full.symbols_lost(), rank_only.symbols_lost());
        ASSERT_EQ(full.decoded().size(), rank_only.decoded().size());
        for (std::size_t i = 0; i < full.decoded().size(); ++i) {
            EXPECT_EQ(full.decoded()[i].index, rank_only.decoded()[i].index);
            EXPECT_EQ(full.decoded()[i].at, rank_only.decoded()[i].at);
        }
        ASSERT_EQ(full.in_order_log().size(), rank_only.in_order_log().size());
        for (std::size_t i = 0; i < full.in_order_log().size(); ++i) {
            EXPECT_EQ(full.in_order_log()[i].index,
                      rank_only.in_order_log()[i].index);
            EXPECT_EQ(full.in_order_log()[i].lost,
                      rank_only.in_order_log()[i].lost);
            EXPECT_EQ(full.in_order_log()[i].at, rank_only.in_order_log()[i].at);
        }
    }
}

// A consumer that releases the logs after every call, as the Session
// does, reads exactly the entries of a decoder that keeps them whole, in
// both modes, with stale, duplicate and jumping arrivals mixed in.
TEST(RlcDecoder, ReleasingTheLogsIncrementallyYieldsTheFullLogs) {
    for (const std::size_t symbol_bytes : {kSym, std::size_t{0}}) {
        SCOPED_TRACE(symbol_bytes);
        RlcDecoder whole(10, symbol_bytes);
        RlcDecoder released(10, symbol_bytes);
        std::vector<RlcDecoder::DecodedEvent> decoded;
        std::vector<RlcDecoder::InOrderEvent> in_order;
        const auto consume = [&] {
            decoded.insert(decoded.end(), released.decoded().begin(),
                           released.decoded().end());
            in_order.insert(in_order.end(), released.in_order_log().begin(),
                            released.in_order_log().end());
            released.release_logs();
            EXPECT_TRUE(released.decoded().empty());
            EXPECT_TRUE(released.in_order_log().empty());
        };
        Rng rng{41};
        RlcEncoder enc(10, kSym, 5);
        double t = 0.0;
        for (std::size_t i = 0; i < 400; ++i) {
            const std::vector<std::uint8_t> src = random_symbol(rng);
            const std::uint64_t idx = enc.add_source(src.data(), kSym);
            t += 1.0;
            // Every 100 sources a burst of 30 losses outruns the window.
            const bool outage = i % 100 >= 70;
            if (!outage && !rng.bernoulli(0.25)) {
                for (RlcDecoder* d : {&whole, &released}) {
                    d->add_source(idx, symbol_bytes ? src.data() : nullptr,
                                  symbol_bytes ? kSym : 0, t);
                }
                consume();
            }
            if (i % 4 == 0 && i >= 2) {
                // A duplicate of an older source: stale or a repeat.
                for (RlcDecoder* d : {&whole, &released}) {
                    d->add_source(idx - 2, nullptr, 0, t);
                }
                consume();
            }
            if (!outage && i % 3 == 0) {
                const RepairSymbol rep = enc.make_repair();
                t += 0.25;
                for (RlcDecoder* d : {&whole, &released}) {
                    d->add_repair(rep.base, rep.count, rep.cseed,
                                  symbol_bytes ? rep.payload.data() : nullptr,
                                  symbol_bytes ? rep.payload.size() : 0, t);
                }
                consume();
            }
        }
        whole.close(t);
        released.close(t);
        consume();
        EXPECT_GT(whole.decoded().size(), 10u);
        EXPECT_GT(whole.symbols_lost(), 0u);
        EXPECT_GT(whole.in_order_log().size(), 300u);
        ASSERT_EQ(decoded.size(), whole.decoded().size());
        for (std::size_t i = 0; i < decoded.size(); ++i) {
            EXPECT_EQ(decoded[i].index, whole.decoded()[i].index);
            EXPECT_EQ(decoded[i].at, whole.decoded()[i].at);
        }
        ASSERT_EQ(in_order.size(), whole.in_order_log().size());
        for (std::size_t i = 0; i < in_order.size(); ++i) {
            EXPECT_EQ(in_order[i].index, whole.in_order_log()[i].index);
            EXPECT_EQ(in_order[i].at, whole.in_order_log()[i].at);
            EXPECT_EQ(in_order[i].lost, whole.in_order_log()[i].lost);
        }
    }
}

TEST(RlcDecoder, AllOrNothingUntilRankCoversTheDeficit) {
    // Two losses in one window: one repair leaves a rank deficit (nothing
    // decodes), the second closes it (both decode at once).
    RlcDecoder dec(8, kSym);
    Rng rng{99};
    RlcEncoder enc(8, kSym, 7);
    std::vector<std::vector<std::uint8_t>> sources;
    for (std::size_t i = 0; i < 6; ++i) {
        sources.push_back(random_symbol(rng));
        enc.add_source(sources.back().data(), kSym);
        if (i != 2 && i != 4) {  // drop sources 2 and 4
            dec.add_source(i, sources[i].data(), kSym, static_cast<double>(i));
        }
    }
    const RepairSymbol r1 = enc.make_repair();
    dec.add_repair(r1.base, r1.count, r1.cseed, r1.payload.data(),
                   r1.payload.size(), 10.0);
    EXPECT_EQ(dec.decoded().size(), 0u) << "decoded below full rank";
    const RepairSymbol r2 = enc.make_repair();
    dec.add_repair(r2.base, r2.count, r2.cseed, r2.payload.data(),
                   r2.payload.size(), 11.0);
    ASSERT_EQ(dec.decoded().size(), 2u);
    EXPECT_EQ(dec.decoded()[0].at, 11.0);
    const std::uint8_t* p2 = dec.payload(2);
    const std::uint8_t* p4 = dec.payload(4);
    ASSERT_NE(p2, nullptr);
    ASSERT_NE(p4, nullptr);
    EXPECT_EQ(std::vector<std::uint8_t>(p2, p2 + kSym), sources[2]);
    EXPECT_EQ(std::vector<std::uint8_t>(p4, p4 + kSym), sources[4]);
}

TEST(RlcDecoder, WindowExpiryDeclaresUnrecoveredSymbolsLost) {
    RlcDecoder dec(4, kSym);
    Rng rng{5};
    std::vector<std::vector<std::uint8_t>> sources;
    for (std::size_t i = 0; i < 10; ++i) {
        sources.push_back(random_symbol(rng));
        if (i == 1) continue;  // symbol 1 is never delivered
        dec.add_source(i, sources[i].data(), kSym, static_cast<double>(i));
    }
    // Source 5 arriving proved the window [2, 5]; symbol 1 expired then.
    EXPECT_EQ(dec.symbols_lost(), 1u);
    bool saw_lost = false;
    for (const auto& e : dec.in_order_log()) {
        if (e.index == 1) {
            EXPECT_TRUE(e.lost);
            saw_lost = true;
        } else {
            EXPECT_FALSE(e.lost);
        }
    }
    EXPECT_TRUE(saw_lost);
    // The in-order log is monotone in index and time.
    for (std::size_t i = 1; i < dec.in_order_log().size(); ++i) {
        EXPECT_EQ(dec.in_order_log()[i].index,
                  dec.in_order_log()[i - 1].index + 1);
        EXPECT_GE(dec.in_order_log()[i].at, dec.in_order_log()[i - 1].at);
    }
}

TEST(RlcDecoder, InOrderTimestampsWaitForTheBlockingSymbol) {
    RlcDecoder dec(8, kSym);
    Rng rng{11};
    RlcEncoder enc(8, kSym, 3);
    std::vector<std::vector<std::uint8_t>> sources;
    for (std::size_t i = 0; i < 3; ++i) {
        sources.push_back(random_symbol(rng));
        enc.add_source(sources[i].data(), kSym);
        if (i != 1) {
            dec.add_source(i, sources[i].data(), kSym,
                           static_cast<double>(i + 1));
        }
    }
    const RepairSymbol rep = enc.make_repair();
    dec.add_repair(rep.base, rep.count, rep.cseed, rep.payload.data(),
                   rep.payload.size(), 9.0);
    // 0 delivered at t=1; 1 decoded at t=9; 2 arrived at t=3 but is only
    // in-order deliverable once 1 resolved, i.e. at t=9.
    ASSERT_EQ(dec.in_order_log().size(), 3u);
    EXPECT_EQ(dec.in_order_log()[0].at, 1.0);
    EXPECT_EQ(dec.in_order_log()[1].at, 9.0);
    EXPECT_EQ(dec.in_order_log()[2].at, 9.0);
}

TEST(RlcDecoder, DuplicatesAndStalePacketsAreCountedNotCrashed) {
    RlcDecoder dec(4, kSym);
    Rng rng{1};
    std::vector<std::uint8_t> s = random_symbol(rng);
    dec.add_source(0, s.data(), kSym, 1.0);
    dec.add_source(0, s.data(), kSym, 2.0);  // duplicate
    EXPECT_EQ(dec.stale_packets(), 1u);
    dec.add_source(9, s.data(), kSym, 3.0);  // window now starts at 6
    dec.add_source(2, s.data(), kSym, 4.0);  // below the base: stale
    EXPECT_EQ(dec.stale_packets(), 2u);
    EXPECT_EQ(dec.rank(), 2u);
}

TEST(RlcDecoder, DecodeImpliesReEncodeForEveryAcceptedRepair) {
    // After a lossy run, re-expand every repair over fully-resolved spans
    // and check the combination of the (decoded or received) originals
    // reproduces the repair payload byte for byte.
    Rng rng{0xD0D0};
    RlcEncoder enc(10, kSym, 77);
    RlcDecoder dec(10, kSym);
    std::vector<std::vector<std::uint8_t>> sources;
    std::vector<RepairSymbol> repairs;
    std::map<std::uint64_t, std::vector<std::uint8_t>> resolved;
    double t = 0.0;
    for (std::size_t i = 0; i < 80; ++i) {
        sources.push_back(random_symbol(rng));
        const std::uint64_t idx = enc.add_source(sources.back().data(), kSym);
        t += 1.0;
        const std::size_t before = dec.decoded().size();
        if (!rng.bernoulli(0.25)) {
            dec.add_source(idx, sources.back().data(), kSym, t);
            resolved[idx] = sources.back();
        }
        if (i % 2 == 1) {
            const RepairSymbol rep = enc.make_repair();
            repairs.push_back(rep);
            t += 0.5;
            dec.add_repair(rep.base, rep.count, rep.cseed,
                           rep.payload.data(), rep.payload.size(), t);
        }
        for (std::size_t d = before; d < dec.decoded().size(); ++d) {
            const std::uint64_t di = dec.decoded()[d].index;
            const std::uint8_t* got = dec.payload(di);
            ASSERT_NE(got, nullptr);
            resolved[di] = std::vector<std::uint8_t>(got, got + kSym);
        }
    }
    std::size_t verified = 0;
    for (const RepairSymbol& rep : repairs) {
        bool full_span = true;
        for (std::size_t j = 0; j < rep.count; ++j) {
            if (resolved.find(rep.base + j) == resolved.end()) {
                full_span = false;
                break;
            }
        }
        if (!full_span) continue;
        std::uint8_t coeffs[espread::fec::kMaxWindow];
        expand_coefficients(rep.cseed, rep.count, coeffs);
        std::vector<std::uint8_t> combo(kSym, 0);
        for (std::size_t j = 0; j < rep.count; ++j) {
            gf_mul_row_add(combo.data(), resolved[rep.base + j].data(), kSym,
                           coeffs[j]);
        }
        EXPECT_EQ(combo, rep.payload) << "re-encode mismatch";
        ++verified;
    }
    EXPECT_GT(verified, 10u) << "too few fully-resolved repairs to be meaningful";
}

// ---------------------------------------------------------------------------
// Golden behaviour pin
//
// The mode-agreement tests above compare payload and rank-only decoding
// with each other, so a change that moved both modes the same way would
// pass them.  The scripts below replay seeded stream and adversarial call
// sequences through one decoder per (window, mode) and fold everything the
// decoder exposes — the decoded and in-order logs (timestamps by bit
// pattern), rank, unresolved count, base and every counter, plus the
// recovered payloads in payload mode — into a digest after every step.
// The constants were recorded on the std::map/std::deque decoder that
// preceded the flat one; any change to a decode decision, its order or
// its timestamp moves them.

/// One scripted decoder call.
struct Op {
    enum class Kind { kSource, kRepair, kAdvanceTo, kAdvanceBy };
    Kind kind = Kind::kSource;
    std::uint64_t index = 0;  ///< source index, repair base or advance target
    std::size_t count = 0;    ///< repair span
    std::uint64_t cseed = 0;
    double at = 0.0;
    std::vector<std::uint8_t> bytes;  ///< payload-mode body
};

/// Encoder-driven stream: sources lost to a two-state Gilbert chain,
/// 2/10-overhead repairs of which some are lost and some arrive late
/// (the decoder base may have moved into their span by then), and the
/// Session's base advance to two windows behind the highest index seen.
std::vector<Op> stream_script(std::uint64_t seed, std::size_t window) {
    Rng rng{seed};
    RlcEncoder enc(window, kSym, seed ^ 0x51DEull);
    std::vector<Op> ops;
    std::vector<Op> late;
    bool bad = false;
    std::size_t credit = 0;
    std::uint64_t seen_end = 0;
    double t = 0.0;
    const auto admit = [&](std::uint64_t end) {
        seen_end = std::max(seen_end, end);
        if (seen_end > 2 * window) {
            ops.push_back({Op::Kind::kAdvanceTo, seen_end - 2 * window, 0, 0,
                           t, {}});
        }
    };
    const std::size_t n_sources = 4 * window + 200;
    for (std::size_t i = 0; i < n_sources; ++i) {
        t += 1e-3;
        const std::vector<std::uint8_t> body = random_symbol(rng);
        const std::uint64_t idx = enc.add_source(body.data(), kSym);
        bad = bad ? !rng.bernoulli(0.35) : rng.bernoulli(0.03);
        if (!bad) {
            admit(idx + 1);
            ops.push_back({Op::Kind::kSource, idx, 0, 0, t, body});
        }
        for (credit += 2; credit >= 10; credit -= 10) {
            RepairSymbol rep = enc.make_repair();
            Op op{Op::Kind::kRepair, rep.base, rep.count, rep.cseed, t,
                  std::move(rep.payload)};
            const std::uint64_t fate = rng.uniform_int(0, 9);
            if (fate == 0) continue;  // lost
            if (fate == 1) {
                late.push_back(std::move(op));
                continue;
            }
            admit(op.index + op.count);
            ops.push_back(std::move(op));
        }
        if (!late.empty() && rng.bernoulli(0.1)) {
            for (Op& op : late) {
                op.at = t;
                admit(op.index + op.count);
                ops.push_back(std::move(op));
            }
            late.clear();
        }
    }
    return ops;
}

/// The FecDecoderFuzz call mix: sources at the frontier, duplicates and
/// stale indices, forward jumps past the plausibility cap, plausible and
/// wild repair spans (count 0 and > kMaxWindow included), and base jumps.
std::vector<Op> fuzz_script(std::uint64_t seed, std::size_t window,
                            std::size_t n_ops) {
    Rng rng{seed};
    std::vector<Op> ops;
    std::uint64_t frontier = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < n_ops; ++i) {
        t += 0.125;
        Op op;
        op.at = t;
        op.bytes = random_symbol(rng);
        const std::uint64_t pick = rng.uniform_int(0, 9);
        if (pick < 5) {
            op.kind = Op::Kind::kSource;
            op.index = frontier;
            if (pick == 0 && frontier > 0) {
                op.index = rng.uniform_int(0, frontier - 1);
            } else if (pick == 1) {
                op.index = frontier + rng.uniform_int(0, 8ull * window);
            } else {
                ++frontier;
            }
            frontier = std::max(frontier, op.index + 1);
        } else if (pick < 9) {
            op.kind = Op::Kind::kRepair;
            const std::uint64_t span_max = 2ull * window + 4;
            op.index = (frontier > span_max ? frontier - span_max : 0) +
                       rng.uniform_int(0, span_max);
            op.count = static_cast<std::size_t>(rng.uniform_int(0, 300));
            if (pick == 8) {
                op.index = rng.next_u64();
                op.count = static_cast<std::size_t>(rng.uniform_int(0, 0xFFFF));
            }
            op.cseed = rng.next_u64();
        } else {
            op.kind = Op::Kind::kAdvanceBy;
            op.index = rng.uniform_int(0, 2ull * window);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/// Order-sensitive FNV-1a digest over 64-bit words.
struct Digest {
    std::uint64_t h = 0xCBF29CE484222325ull;
    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h = (h ^ ((v >> (8 * b)) & 0xFFu)) * 0x100000001B3ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/// Folds the decoder's observable state into `d`: the logs are
/// append-only, so each step folds their new entries plus their sizes.
struct Observer {
    Digest d;
    std::size_t decoded_seen = 0;
    std::size_t log_seen = 0;

    void step(const RlcDecoder& dec) {
        for (; decoded_seen < dec.decoded().size(); ++decoded_seen) {
            const RlcDecoder::DecodedEvent& e = dec.decoded()[decoded_seen];
            d.add(e.index);
            d.add(e.at);
            if (const std::uint8_t* p = dec.payload(e.index)) {
                for (std::size_t b = 0; b < kSym; ++b) d.add(std::uint64_t{p[b]});
            }
        }
        for (; log_seen < dec.in_order_log().size(); ++log_seen) {
            const RlcDecoder::InOrderEvent& e = dec.in_order_log()[log_seen];
            d.add(e.index);
            d.add(e.at);
            d.add(std::uint64_t{e.lost});
        }
        for (const std::uint64_t v :
             {std::uint64_t{dec.rank()}, std::uint64_t{dec.unresolved()},
              dec.base(), std::uint64_t{dec.sources_received()},
              std::uint64_t{dec.repairs_received()},
              std::uint64_t{dec.repairs_redundant()},
              std::uint64_t{dec.stale_packets()},
              std::uint64_t{dec.symbols_lost()},
              std::uint64_t{dec.decoded().size()},
              std::uint64_t{dec.in_order_log().size()}}) {
            d.add(v);
        }
    }
};

void replay(const std::vector<Op>& ops, RlcDecoder& dec, std::size_t sym,
            Observer& obs) {
    double t = 0.0;
    for (const Op& op : ops) {
        t = op.at;
        const std::uint8_t* body = sym > 0 ? op.bytes.data() : nullptr;
        const std::size_t len = sym > 0 ? op.bytes.size() : 0;
        switch (op.kind) {
            case Op::Kind::kSource:
                dec.add_source(op.index, body, len, t);
                break;
            case Op::Kind::kRepair:
                dec.add_repair(op.index, op.count, op.cseed, body, len, t);
                break;
            case Op::Kind::kAdvanceTo:
                dec.advance_base(op.index, t);
                break;
            case Op::Kind::kAdvanceBy:
                dec.advance_base(dec.base() + op.index, t);
                break;
        }
        obs.step(dec);
    }
    dec.close(t + 1.0);
    obs.step(dec);
}

std::uint64_t golden_digest(std::size_t sym) {
    Observer obs;
    for (const std::size_t window : {1u, 16u, 64u, 255u}) {
        for (const std::uint64_t seed : {1ull, 2ull}) {
            RlcDecoder dec(window, sym);
            replay(stream_script(seed * 1000 + window, window), dec, sym, obs);
        }
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            RlcDecoder dec(window, sym);
            replay(fuzz_script(seed * 7919 + window, window, 500), dec, sym,
                   obs);
        }
    }
    return obs.d.h;
}

TEST(RlcDecoderGolden, PayloadModeMatchesThePinnedDigest) {
    EXPECT_EQ(golden_digest(kSym), 6232780592549006911ull);
}

TEST(RlcDecoderGolden, RankOnlyModeMatchesThePinnedDigest) {
    EXPECT_EQ(golden_digest(0), 13317943772013921214ull);
}

// The tracked-span edges: a source at the largest forward jump the
// decoder accepts (kMaxForwardWindows = 4 windows past the frontier), then
// a full 255-wide repair at the largest accepted forward base, then close.
// Counter values were recorded on the std::deque decoder.
TEST(RlcDecoderGolden, LargestAcceptedForwardJumpsStayInsideTheRing) {
    struct Want {
        std::size_t window;
        std::size_t rank, redundant, stale, lost, log, unresolved;
    };
    for (const Want& w : {Want{1, 2, 0, 0, 263, 264, 255},
                          Want{255, 2, 0, 0, 2295, 2296, 255}}) {
        for (const std::size_t sym : {kSym, std::size_t{0}}) {
            RlcDecoder dec(w.window, sym);
            const std::vector<std::uint8_t> body(kSym, 0x5A);
            const std::uint64_t src = 4 * w.window;
            ASSERT_NO_THROW(dec.add_source(src, sym ? body.data() : nullptr,
                                           sym ? kSym : 0, 1.0));
            const std::uint64_t base = (src + 1) + 4 * w.window;
            ASSERT_NO_THROW(dec.add_repair(base, espread::fec::kMaxWindow,
                                           0xFEEDull,
                                           sym ? body.data() : nullptr,
                                           sym ? kSym : 0, 2.0));
            const std::size_t unresolved = dec.unresolved();
            ASSERT_NO_THROW(dec.close(3.0));
            EXPECT_EQ(dec.sources_received(), 1u);
            EXPECT_EQ(dec.repairs_received(), 1u);
            EXPECT_EQ(dec.rank(), w.rank) << "W=" << w.window;
            EXPECT_EQ(dec.repairs_redundant(), w.redundant) << "W=" << w.window;
            EXPECT_EQ(dec.stale_packets(), w.stale) << "W=" << w.window;
            EXPECT_EQ(dec.symbols_lost(), w.lost) << "W=" << w.window;
            EXPECT_EQ(dec.in_order_log().size(), w.log) << "W=" << w.window;
            EXPECT_EQ(unresolved, w.unresolved) << "W=" << w.window;
            EXPECT_EQ(dec.base(), base + espread::fec::kMaxWindow);
        }
    }
}

}  // namespace
