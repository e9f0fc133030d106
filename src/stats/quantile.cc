#include "stats/quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace dri::stats {

void
QuantileEstimator::add(double sample)
{
    samples_.push_back(sample);
    sorted_valid_ = false;
}

void
QuantileEstimator::addAll(const std::vector<double> &samples)
{
    samples_.insert(samples_.end(), samples.begin(), samples.end());
    sorted_valid_ = false;
}

void
QuantileEstimator::ensureSorted() const
{
    if (!sorted_valid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double
QuantileEstimator::quantile(double q) const
{
    assert(!empty());
    assert(q >= 0.0 && q <= 1.0);
    ensureSorted();
    if (sorted_.size() == 1)
        return sorted_.front();
    const double pos = q * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double
QuantileEstimator::mean() const
{
    assert(!empty());
    return sum() / static_cast<double>(count());
}

double
QuantileEstimator::sum() const
{
    // Accumulate in sorted order: the sum then depends only on the
    // sample multiset, not on insertion order.
    ensureSorted();
    return std::accumulate(sorted_.begin(), sorted_.end(), 0.0);
}

} // namespace dri::stats
