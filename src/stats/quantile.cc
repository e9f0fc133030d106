#include "stats/quantile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dri::stats {

void
QuantileEstimator::add(double sample)
{
    samples_.push_back(sample);
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
    if (empty())
        throw std::out_of_range("QuantileEstimator: quantile of no samples");
    if (!(q >= 0.0 && q <= 1.0))
        throw std::invalid_argument("QuantileEstimator: q outside [0, 1]");
    ensureSorted();
    if (sorted_.size() == 1)
        return sorted_.front();
    const double pos = q * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

} // namespace dri::stats
