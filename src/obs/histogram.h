/**
 * @file
 * Log-linear histogram.
 *
 * HDR-style bucketing: values below 2^sub_bucket_bits get exact unit
 * buckets; above that, each power-of-two range is split into
 * 2^sub_bucket_bits linear sub-buckets, giving a bounded relative error
 * of 2^-sub_bucket_bits with O(log range) memory.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dri::obs {

/** Log-linear histogram over non-negative integer values. */
class Histogram
{
  public:
    /**
     * Largest accepted sub_bucket_bits: 2^16 sub-buckets per octave
     * (1.5e-5 relative error). The bound keeps `1 << sub_bucket_bits`
     * defined and the bucket vector of any int64 value under 4M slots.
     */
    static constexpr unsigned kMaxSubBucketBits = 16;

    /** Throws std::invalid_argument above kMaxSubBucketBits. */
    explicit Histogram(unsigned sub_bucket_bits = 5);

    void observe(std::int64_t value);

    std::uint64_t count() const { return count_; }
    std::int64_t min() const { return count_ > 0 ? min_ : 0; }
    std::int64_t max() const { return max_; }
    std::int64_t sum() const { return sum_; }
    double mean() const
    {
        return count_ > 0 ? static_cast<double>(sum_) /
                                static_cast<double>(count_)
                          : 0.0;
    }

    /**
     * Bucket-interpolation inverse: the value at quantile q, linearly
     * interpolated by rank position WITHIN the holding bucket. Because
     * log-linear bucket widths are bounded by 2^-sub_bucket_bits of
     * their lower bound, the result is within that relative error of
     * the exact order statistic; clamped to the observed [min, max].
     * The holding bucket is found walking down from the highest one,
     * so a tail quantile reads only the buckets above it; the bucket
     * and the count below it, hence the result, are those of a walk up
     * from bucket 0.
     */
    double valueAtQuantile(double q) const
    {
        return quantileOfSum([this](auto &&visit) { visit(*this); }, q,
                             0.0);
    }

    /**
     * valueAtQuantile() of the sum of several histograms of one
     * sub_bucket_bits, read without building that sum: the same double
     * their merge() would answer. `parts(visit)` must call
     * visit(const Histogram &) once per part. An empty sum reads
     * @p empty_value.
     */
    template <class Parts>
    static double quantileOfSum(const Parts &parts, double q,
                                double empty_value);

    /** Bucket index a value lands in (exposed for boundary tests). */
    std::size_t bucketIndex(std::int64_t value) const;

    /** Smallest value mapping to bucket @p idx (inverse of bucketIndex). */
    std::int64_t bucketLowerBound(std::size_t idx) const;

    /** Observations in bucket @p idx (0 past the highest one used). */
    std::uint64_t bucketCount(std::size_t idx) const
    {
        return idx < buckets_.size() ? buckets_[idx] : 0;
    }

    /** Merge another histogram (same sub_bucket_bits) into this one. */
    void merge(const Histogram &other);

  private:
    unsigned sub_bucket_bits_;
    std::int64_t sub_;                 //!< 1 << sub_bucket_bits_
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::int64_t sum_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
};

template <class Parts>
double
Histogram::quantileOfSum(const Parts &parts, double q, double empty_value)
{
    const Histogram *geometry = nullptr;
    std::uint64_t count = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::size_t end = 0;
    parts([&](const Histogram &h) {
        if (h.count_ == 0)
            return;
        if (count == 0 || h.min_ < min)
            min = h.min_;
        max = std::max(max, h.max_);
        count += h.count_;
        end = std::max(end, h.buckets_.size());
        geometry = &h;
    });
    if (count == 0)
        return empty_value;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(count);
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(target)));
    // Walk down: the holding bucket is the highest non-empty one with
    // fewer than `rank` observations below it.
    std::uint64_t above = 0;
    for (std::size_t i = end; i-- > 0;) {
        std::uint64_t n = 0;
        parts([&](const Histogram &h) { n += h.bucketCount(i); });
        if (n == 0)
            continue;
        const std::uint64_t seen = count - above - n;
        if (seen >= rank) {
            above += n;
            continue;
        }
        // Interpolate by fractional rank position across the bucket's
        // value range [lo, hi).
        const auto lo = static_cast<double>(geometry->bucketLowerBound(i));
        const auto hi =
            static_cast<double>(geometry->bucketLowerBound(i + 1));
        const double into = (target - static_cast<double>(seen)) /
                            static_cast<double>(n);
        const double v = lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
        return std::min(static_cast<double>(max),
                        std::max(static_cast<double>(min), v));
    }
    return static_cast<double>(max);
}

} // namespace dri::obs
