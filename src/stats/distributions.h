/**
 * @file
 * Parametric samplers used throughout workload and network modelling.
 *
 * The paper's workload structure is distributional: request sizes are
 * heavy-tailed (P99 latency is ~5x P50, Table III), embedding-table sizes
 * follow either a long tail (DRM1/DRM2) or a single dominant mass (DRM3,
 * Fig. 5), and network jitter is modelled as lognormal, the standard choice
 * for data-center RPC latency.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/rng.h"

namespace dri::stats {

/**
 * Lognormal sampler parameterized by the *median* and the sigma of the
 * underlying normal. median = exp(mu) makes calibration against measured
 * medians direct.
 */
class LognormalSampler
{
  public:
    /** Throws std::invalid_argument unless median > 0 and sigma >= 0. */
    LognormalSampler(double median, double sigma);

    /**
     * Inline: every simulated wire hop pays one of these. `engine` is any
     * full-range 64-bit engine (Rng, CounterStream). Draws nothing when
     * sigma is 0.
     */
    template <class Engine>
    double
    sample(Engine &engine) const
    {
        if (sigma_ == 0.0)
            return median_;
        return std::exp(mu_ + sigma_ * gaussian(engine));
    }

  private:
    double median_;
    double sigma_;
    double mu_;
};

/**
 * Bounded Pareto sampler for heavy-tailed request sizes. alpha controls tail
 * weight (smaller = heavier); samples lie in [lo, hi].
 */
class BoundedParetoSampler
{
  public:
    /** Throws std::invalid_argument unless alpha > 0 and 0 < lo <= hi. */
    BoundedParetoSampler(double alpha, double lo, double hi);

    double sample(Rng &rng) const;

  private:
    double alpha_;
    double lo_;
    double hi_;
};

/**
 * Zipf sampler over ranks 1..n with exponent s, via inverse-CDF on the
 * precomputed normalization. Used for skewed embedding-row popularity.
 *
 * A draw returns the first rank whose CDF entry is >= u, found through a
 * guide table of B = 4n buckets: guide_[j] is the first rank k with
 * floor(cdf[k] * B) >= j, computed with the same floating-point product
 * the query forms from u. Multiplication by B is monotone, so every rank
 * below guide_[floor(u*B)] has cdf < u, and a short linear scan from
 * there lands on exactly the rank a binary search over the CDF would
 * return (O(1) expected). Four buckets per rank keep that scan to about
 * one step where the CDF is steep (the head ranks a Zipf draw mostly
 * returns), so its exit branch predicts well; the guide is 16n bytes of
 * uint32_t, 64 KiB at the trace recorder's n = 4,096.
 */
class ZipfSampler
{
  public:
    /**
     * Throws std::invalid_argument when n is 0, n exceeds 2^32 (a rank
     * must fit the guide's uint32_t) or s is NaN.
     */
    ZipfSampler(std::size_t n, double s);

    /** Returns a rank in [0, n). Rank 0 is the most popular. Inline: the
     *  trace recorder draws one per embedding access. Takes exactly one
     *  engine word, which workload::forEachRank's table filter relies
     *  on. */
    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.uniform();
        const std::size_t last = cdf_.size() - 1;
        std::size_t k = guide_[static_cast<std::size_t>(u * scale_)];
        while (k < last && cdf_[k] < u)
            ++k;
        return k;
    }

  private:
    std::vector<double> cdf_;
    /**
     * 4n + 1 entries: u * 4n can round up to 4n when u is just below 1.
     */
    std::vector<std::uint32_t> guide_;
    double scale_; //!< the bucket count 4n, as the query multiplies by it
};

/**
 * Poisson count with the given mean by Knuth's method: multiply uniforms
 * until the product drops to exp(-mean). It takes about mean + 1 draws
 * and one exp, so it suits small means (burst counts, per-table lookup
 * counts). Returns 0 without drawing when mean <= 0.
 */
inline int
samplePoissonKnuth(double mean, Rng &rng)
{
    if (mean <= 0.0)
        return 0;
    const double l = std::exp(-mean);
    double p = 1.0;
    int k = 0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > l);
    return k - 1;
}

} // namespace dri::stats
