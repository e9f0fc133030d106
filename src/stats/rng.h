/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * network jitter. Every stochastic component in the library draws from an
 * explicitly seeded Rng so that experiments are bit-reproducible.
 *
 * Hot paths that fork one child stream per unit of work (the serving
 * engine forks one per RPC attempt) reuse pooled children through
 * forkInto(), which resets the child in place to exactly the stream
 * fork() would return. Several such children can then have their seed
 * expansion run together through Mt64::seedMany() on their engine().
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "stats/mt64.h"

namespace dri::stats {

/**
 * A seeded 64-bit Mersenne Twister with convenience draw helpers.
 *
 * Rng is cheap to copy but typically passed by reference; components that
 * need independent streams should derive one with fork() so that adding a
 * consumer never perturbs the draws seen by existing consumers. The
 * engine is Mt64, a lazily-seeded generator output-identical to
 * std::mt19937_64 — forks are cheap (no eager 312-word state expansion),
 * and every historical draw value is preserved bit-for-bit.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    /** Uniform double in [0, 1). */
    double uniform() { return canonical(); }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi)
    {
        return canonical() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi], inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Standard normal draw. Marsaglia polar method, matching
     * std::normal_distribution's variate sequence (the second coordinate
     * of each accepted pair is returned; the first would be the
     * distribution object's cached deviate, which per-call construction
     * always discarded).
     */
    double
    gaussian()
    {
        double x, y, r2;
        do {
            x = 2.0 * canonical() - 1.0;
            y = 2.0 * canonical() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
        return y * mult;
    }

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev)
    {
        return gaussian() * stddev + mean;
    }

    /** Exponential draw with the given rate (events per unit time). */
    double exponential(double rate) { return -std::log(1.0 - canonical()) / rate; }

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p) { return canonical() < p; }

    /**
     * Derive an independent child stream. The child's sequence is a pure
     * function of (parent seed, salt), not of how many draws the parent has
     * made. SplitMix64-style mix of (seed, salt) gives well-separated
     * child seeds without consuming draws from the parent stream.
     */
    Rng fork(std::uint64_t salt) const { return Rng(forkSeed(salt)); }

    /**
     * In-place fork(): reset @p child to exactly the stream fork(salt)
     * returns, whatever @p child drew before. No Rng is constructed or
     * copied, so a pooled child costs a handful of stores.
     */
    void
    forkInto(std::uint64_t salt, Rng &child) const
    {
        const std::uint64_t z = forkSeed(salt);
        child.engine_.reseed(z);
        child.seed_ = z;
    }

    /** The seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Expose the engine for std:: distribution interop. */
    Mt64 &engine() { return engine_; }

  private:
    /** SplitMix64-style child seed of (seed, salt). */
    std::uint64_t
    forkSeed(std::uint64_t salt) const
    {
        std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /**
     * One canonical double in [0, 1) from a full 64-bit engine word —
     * exactly what libstdc++'s std::generate_canonical<double, 53>
     * produces for a URBG spanning the full 2^64 range (one draw, scale
     * by 2^-64, clamp the rounded-up-to-1.0 edge back below 1). The
     * draw helpers hand-roll their distributions on top of this instead
     * of constructing std:: distribution objects per call: the values
     * are bit-identical (locked down by sim_perf_test against the std::
     * implementations), but the per-call cost drops severalfold.
     */
    double
    canonical()
    {
        double r = static_cast<double>(engine_()) * 0x1p-64;
        if (r >= 1.0)
            r = std::nextafter(1.0, 0.0);
        return r;
    }

    Mt64 engine_;
    std::uint64_t seed_;
};

} // namespace dri::stats
