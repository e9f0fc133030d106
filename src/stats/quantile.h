/**
 * @file
 * Exact quantile computation over collected samples.
 *
 * The paper reports P50/P90/P99 everywhere (Figs. 6, 7, 16; Table III). Our
 * experiments collect at most a few hundred thousand per-request samples, so
 * an exact sorted-sample estimator is both affordable and removes sketch
 * error from the reproduction.
 */
#pragma once

#include <cstddef>
#include <vector>

namespace dri::stats {

/**
 * Accumulates double samples and answers arbitrary quantile queries exactly
 * using linear interpolation between order statistics (the same convention
 * as numpy.percentile's default). Every sample ever added contributes;
 * windowed tails live in src/obs/timeseries.h.
 */
class QuantileEstimator
{
  public:
    QuantileEstimator() = default;

    void add(double sample);

    std::size_t count() const { return samples_.size(); }

    bool empty() const { return count() == 0; }

    /**
     * Quantile query; q in [0, 1]. q = 0 returns the minimum, q = 1 the
     * maximum. Throws std::out_of_range with no samples and
     * std::invalid_argument for q outside [0, 1].
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
    /** P99.9 — the overload experiments' extreme-tail metric. */
    double p999() const { return quantile(0.999); }

    double min() const { return quantile(0.0); }
    double max() const { return quantile(1.0); }

  private:
    std::vector<double> samples_;

    /** Sorted copy of the samples, rebuilt on demand. */
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = true;

    void ensureSorted() const;
};

} // namespace dri::stats
