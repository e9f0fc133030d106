/**
 * @file
 * Lazily-seeded 64-bit Mersenne Twister, output-identical to
 * std::mt19937_64.
 *
 * The serving hot path forks a fresh child stream per RPC attempt
 * (common-random-numbers discipline), and each attempt consumes only a
 * handful of draws. std::mt19937_64 pays the full 312-word seed
 * expansion at construction plus a full 312-word twist on the first
 * draw — ~2 us on commodity hardware, which dominated simulator wall
 * time at ~20k forks per run. Mt64 defers both: seed words materialize
 * incrementally (word i of the first twist needs raw words up to
 * i + 156), and first-block twisting advances one word per draw. A
 * fork that draws 8 values touches ~170 state words instead of ~624.
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
 *
 * Even lazily, a fork's first draw expands raw seed words 1..157: a
 * serial chain of 156 dependent multiplies that costs more than the
 * draws themselves. reseed() resets a stream in place (no 2.5 KB
 * construct-and-copy), and seedMany() expands the raw words of up to
 * kMaxSeedBatch fresh streams at once with their chains interleaved,
 * so the independent multiplies overlap in the pipeline instead of
 * running back to back. Both write exactly the words the lazy path
 * would, so the output contract above is untouched.
 */
#pragma once

#include <cstdint>
#include <stdexcept>

namespace dri::stats {

class Mt64
{
  public:
    using result_type = std::uint64_t;

    /** Most streams one seedMany() call expands. */
    static constexpr int kMaxSeedBatch = 16;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt64(std::uint64_t seed)
    {
        mt_[0] = seed;
    }

    /** Restart as a fresh lazy stream, as if constructed with @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        mt_[0] = seed;
        seeded_ = 1;
        twisted_ = 0;
        next_ = 0;
        lazy_ = true;
    }

    /**
     * Materialize raw seed words [1, n) of the @p k fresh streams
     * `gens[0..k)` (constructed or reseed()ed, nothing drawn yet), with
     * the k expansion chains interleaved. Drawing d values from a
     * stream reads raw words up to 156 + d, so n = 156 + d covers its
     * first d draws; later draws extend the expansion lazily as usual.
     * Throws std::invalid_argument for k outside [0, kMaxSeedBatch], n
     * outside [1, 312] (one state block), or a stream that is not fresh.
     */
    static void
    seedMany(Mt64 *const *gens, int k, int n)
    {
        if (k < 0 || k > kMaxSeedBatch)
            throw std::invalid_argument("Mt64::seedMany: k outside [0, 16]");
        if (n < 1 || n > kN)
            throw std::invalid_argument("Mt64::seedMany: n outside [1, 312]");
        std::uint64_t x[kMaxSeedBatch] = {};
        for (int j = 0; j < k; ++j) {
            if (gens[j]->seeded_ != 1 || gens[j]->twisted_ != 0)
                throw std::invalid_argument(
                    "Mt64::seedMany: stream already drawn from");
            x[j] = gens[j]->mt_[0];
        }
        for (int i = 1; i < n; ++i) {
            for (int j = 0; j < k; ++j) {
                x[j] = kInitMult * (x[j] ^ (x[j] >> 62)) +
                       static_cast<std::uint64_t>(i);
                gens[j]->mt_[i] = x[j];
            }
        }
        for (int j = 0; j < k; ++j)
            gens[j]->seeded_ = n;
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
