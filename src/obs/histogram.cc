#include "obs/histogram.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dri::obs {

Histogram::Histogram(unsigned sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits)
{
    if (sub_bucket_bits > kMaxSubBucketBits)
        throw std::invalid_argument(
            "Histogram: sub_bucket_bits must be <= " +
            std::to_string(kMaxSubBucketBits) + ", got " +
            std::to_string(sub_bucket_bits));
    sub_ = std::int64_t{1} << sub_bucket_bits;
}

std::size_t
Histogram::bucketIndex(std::int64_t value) const
{
    if (value < 0)
        value = 0;
    if (value < sub_)
        return static_cast<std::size_t>(value);
    // value >= sub_ >= 1 here, so it has a most significant set bit.
    const unsigned msb =
        63u - static_cast<unsigned>(
                  __builtin_clzll(static_cast<std::uint64_t>(value)));
    const unsigned top = msb - sub_bucket_bits_;
    return static_cast<std::size_t>(
        (static_cast<std::int64_t>(top) << sub_bucket_bits_) +
        ((value >> top) - sub_) + sub_);
}

std::int64_t
Histogram::bucketLowerBound(std::size_t idx) const
{
    const auto i = static_cast<std::int64_t>(idx);
    if (i < sub_)
        return i;
    const std::int64_t top = (i - sub_) >> sub_bucket_bits_;
    const std::int64_t rem = (i - sub_) & (sub_ - 1);
    return (sub_ + rem) << top;
}

void
Histogram::observe(std::int64_t value)
{
    if (value < 0)
        value = 0;
    const std::size_t idx = bucketIndex(value);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    if (count_ == 0 || value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
    sum_ += value;
    ++count_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.sub_bucket_bits_ != sub_bucket_bits_)
        throw std::logic_error(
            "Histogram::merge: sub_bucket_bits mismatch");
    if (other.count_ == 0)
        return;
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
}

} // namespace dri::obs
