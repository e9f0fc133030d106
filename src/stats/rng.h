/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis and
 * network jitter. Every stochastic component in the library draws from an
 * explicitly seeded Rng so that experiments are bit-reproducible.
 *
 * The draw helpers (canonical, gaussian, exponential, bernoulli) are
 * templates over a full-range 64-bit engine, so the long-lived Mt64
 * streams inside Rng and the short per-unit CounterStream share one copy
 * of the distribution code.
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "stats/hash.h"
#include "stats/mt64.h"

namespace dri::stats {

/**
 * One canonical double in [0, 1) from a full 64-bit engine word —
 * exactly what libstdc++'s std::generate_canonical<double, 53> produces
 * for a URBG spanning the full 2^64 range (one draw, scale by 2^-64,
 * clamp the rounded-up-to-1.0 edge back below 1). The helpers below
 * hand-roll their distributions on top of this instead of constructing
 * std:: distribution objects per call: the values are bit-identical
 * (locked down by sim_perf_test against the std:: implementations), but
 * the per-call cost drops severalfold.
 */
template <class Engine>
double
canonical(Engine &engine)
{
    static_assert(Engine::min() == 0 && Engine::max() == ~std::uint64_t{0},
                  "canonical() needs a full-range 64-bit engine");
    double r = static_cast<double>(engine()) * 0x1p-64;
    if (r >= 1.0)
        r = std::nextafter(1.0, 0.0);
    return r;
}

/**
 * Standard normal draw. Marsaglia polar method, matching
 * std::normal_distribution's variate sequence (the second coordinate of
 * each accepted pair is returned; the first would be the distribution
 * object's cached deviate, which per-call construction always discarded).
 */
template <class Engine>
double
gaussian(Engine &engine)
{
    double x, y, r2;
    do {
        x = 2.0 * canonical(engine) - 1.0;
        y = 2.0 * canonical(engine) - 1.0;
        r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult;
}

/** Exponential draw with the given rate (events per unit time). */
template <class Engine>
double
exponential(Engine &engine, double rate)
{
    return -std::log(1.0 - canonical(engine)) / rate;
}

/** Bernoulli draw: true with probability p. */
template <class Engine>
bool
bernoulli(Engine &engine, double p)
{
    return canonical(engine) < p;
}

/**
 * A seeded 64-bit Mersenne Twister with convenience draw helpers.
 *
 * Rng is cheap to copy but typically passed by reference; components that
 * need independent streams should derive one with fork() so that adding a
 * consumer never perturbs the draws seen by existing consumers. The
 * engine is Mt64, a lazily-seeded generator output-identical to
 * std::mt19937_64 — forks are cheap (no eager 312-word state expansion),
 * and every historical draw value is preserved bit-for-bit. Rng is
 * itself a full-range engine (it forwards to Mt64), so the templated
 * draw helpers and samplers accept it directly.
 */
class Rng
{
  public:
    using result_type = Mt64::result_type;

    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    static constexpr result_type min() { return Mt64::min(); }
    static constexpr result_type max() { return Mt64::max(); }

    /** The next raw engine word. */
    result_type operator()() { return engine_(); }

    /** Skip the next n engine words (Mt64::discard). */
    void discard(std::uint64_t n) { engine_.discard(n); }

    /** Uniform double in [0, 1). */
    double uniform() { return canonical(engine_); }

    /** Uniform double in [lo, hi). Requires lo <= hi. */
    double uniform(double lo, double hi)
    {
        return canonical(engine_) * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi], inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal draw (stats::gaussian). */
    double gaussian() { return stats::gaussian(engine_); }

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev)
    {
        return gaussian() * stddev + mean;
    }

    /** Exponential draw with the given rate (events per unit time). */
    double
    exponential(double rate)
    {
        return stats::exponential(engine_, rate);
    }

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p) { return stats::bernoulli(engine_, p); }

    /**
     * Derive an independent child stream. The child's sequence is a pure
     * function of (parent seed, salt), not of how many draws the parent has
     * made.
     */
    Rng fork(std::uint64_t salt) const { return Rng(forkSeed(salt)); }

    /**
     * The seed fork(salt) hands its child: a SplitMix64-style mix of
     * (seed, salt) that gives well-separated child seeds without
     * consuming draws from this stream. Also keys a CounterStream.
     */
    std::uint64_t
    forkSeed(std::uint64_t salt) const
    {
        return mix64(seed_ + 0x9e3779b97f4a7c15ULL * (salt + 1));
    }

    /** The seed this stream was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Expose the engine for std:: distribution interop. */
    Mt64 &engine() { return engine_; }

  private:
    Mt64 engine_;
    std::uint64_t seed_;
};

/**
 * A stateless counter-based stream: draw i of the stream keyed `key` is
 * mix64(key + (i + 1) * 0x9e3779b97f4a7c15), the output sequence of
 * SplitMix64 (Steele et al., OOPSLA'14) seeded with `key`. The whole
 * state is {key, counter}, so building a stream costs two stores, and
 * draw i depends on nothing but (key, i). The serving engine keys one
 * per RPC attempt for the attempt's handful of draws, where seeding a
 * Mersenne Twister would cost far more than the draws themselves.
 */
class CounterStream
{
  public:
    using result_type = std::uint64_t;

    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

    explicit CounterStream(std::uint64_t key = 0) : key_(key) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()() { return mix64(key_ + ++counter_ * kGamma); }

  private:
    std::uint64_t key_;
    std::uint64_t counter_ = 0;
};

} // namespace dri::stats
