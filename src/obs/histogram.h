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
     */
    double valueAtQuantile(double q) const;

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

} // namespace dri::obs
