/**
 * @file
 * Lazily-seeded 64-bit Mersenne Twister, output-identical to
 * std::mt19937_64.
 *
 * Workload generation, arrivals, load balancing and the samplers fork
 * child streams with Rng::fork(), and a short-lived child may draw only
 * a few values. std::mt19937_64 pays the full 312-word seed expansion at
 * construction plus a full 312-word twist on the first draw. Mt64
 * defers both: seed words materialize incrementally (word i of the
 * first twist needs raw words up to i + 156), and first-block twisting
 * advances one word per draw. A fork that draws 8 values touches ~170
 * state words instead of ~624. Streams that live for a handful of draws
 * in a hot loop should use a CounterStream (stats/rng.h) instead.
 *
 * Output equivalence with std::mt19937_64 (same seed, same draw index)
 * is exact: identical init multiplier, twist masks, and tempering
 * shifts, and the in-place twist uses the same new-vs-old word choices
 * as the reference implementation (the last word of a block reads the
 * block's already-twisted word 0). Long-lived streams degrade
 * gracefully: once the first block is consumed, steady state is the
 * classic full-block twist. sim_perf_test locks the equivalence down
 * across seeds, draw counts, and block boundaries.
 *
 * Satisfies UniformRandomBitGenerator, so std:: distributions draw
 * through it unchanged — and produce the same values they would from
 * std::mt19937_64, since only min()/max() and the output stream enter
 * their math.
 */
#pragma once

#include <cstdint>

namespace dri::stats {

class Mt64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(std::uint64_t seed)
    {
        mt_[0] = seed;
    }

    result_type
    operator()()
    {
        if (next_ >= kN) {
            twistAll();
            next_ = 0;
            lazy_ = false;
        } else if (lazy_) {
            twistTo(next_ + 1);
        }
        std::uint64_t y = mt_[next_++];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        y ^= y >> 43;
        return y;
    }

    /**
     * Advance the stream by n outputs, as n calls would, and equal to
     * std::mt19937_64::discard(n). Whole blocks are twisted without
     * tempering any word, so a long skip costs one twist per 312 words
     * and a skip inside the current block costs nothing until the next
     * draw (the lazy first block catches up there).
     */
    void
    discard(std::uint64_t n)
    {
        if (lazy_) {
            const auto left = static_cast<std::uint64_t>(kN - next_);
            if (n < left) {
                next_ += static_cast<int>(n);
                return;
            }
            twistTo(kN);
            lazy_ = false;
            n -= left;
            next_ = kN;
        }
        const auto left = static_cast<std::uint64_t>(kN - next_);
        if (n <= left) {
            next_ += static_cast<int>(n);
            return;
        }
        // Words past the current block: whole blocks, then a partial
        // one whose first n % kN words are taken as read.
        n -= left;
        for (; n > static_cast<std::uint64_t>(kN); n -= kN)
            twistAll();
        twistAll();
        next_ = static_cast<int>(n);
    }

  private:
    static constexpr int kN = 312;
    static constexpr int kM = 156;
    static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
    static constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
    static constexpr std::uint64_t kLowerMask = 0x000000007FFFFFFFULL;
    static constexpr std::uint64_t kInitMult = 6364136223846793005ULL;

    /** Materialize raw seed words [seeded_, n). First block only. */
    void
    seedTo(int n)
    {
        std::uint64_t x = mt_[seeded_ - 1];
        for (int i = seeded_; i < n; ++i) {
            x = kInitMult * (x ^ (x >> 62)) + static_cast<std::uint64_t>(i);
            mt_[i] = x;
        }
        if (n > seeded_)
            seeded_ = n;
    }

    static std::uint64_t
    twistTerm(std::uint64_t hi, std::uint64_t lo)
    {
        const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
        return (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
    }

    /**
     * Twist first-block words [twisted_, n) in place. Words below
     * kN - kM mix raw seed word i + kM; later words mix the block's own
     * already-twisted low words, exactly as the reference full twist
     * does when it overwrites the array front-to-back.
     */
    void
    twistTo(int n)
    {
        if (twisted_ >= n)
            return;
        seedTo(n <= kN - kM ? n + kM : kN);
        for (int i = twisted_; i < n; ++i) {
            const int src = i < kN - kM ? i + kM : i + kM - kN;
            mt_[i] = mt_[src] ^ twistTerm(mt_[i], mt_[(i + 1) % kN]);
        }
        twisted_ = n;
    }

    /** Classic full-block in-place twist (steady state). */
    void
    twistAll()
    {
        for (int i = 0; i < kN - kM; ++i)
            mt_[i] = mt_[i + kM] ^ twistTerm(mt_[i], mt_[i + 1]);
        for (int i = kN - kM; i < kN - 1; ++i)
            mt_[i] = mt_[i + kM - kN] ^ twistTerm(mt_[i], mt_[i + 1]);
        mt_[kN - 1] = mt_[kM - 1] ^ twistTerm(mt_[kN - 1], mt_[0]);
    }

    std::uint64_t mt_[kN];
    int seeded_ = 1;   //!< Raw seed words materialized (first block).
    int twisted_ = 0;  //!< First-block words twisted so far.
    int next_ = 0;     //!< Next output index within the current block.
    bool lazy_ = true; //!< Still inside the lazily-expanded first block.
};

} // namespace dri::stats
