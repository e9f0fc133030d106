#include "stats/distributions.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dri::stats {

LognormalSampler::LognormalSampler(double median, double sigma)
    : median_(median), sigma_(sigma), mu_(std::log(median))
{
    if (!(median > 0.0) || !(sigma >= 0.0))
        throw std::invalid_argument(
            "LognormalSampler: requires median > 0 and sigma >= 0");
}

BoundedParetoSampler::BoundedParetoSampler(double alpha, double lo, double hi)
    : alpha_(alpha), lo_(lo), hi_(hi)
{
    if (!(alpha > 0.0) || !(lo > 0.0) || !(hi >= lo))
        throw std::invalid_argument(
            "BoundedParetoSampler: requires alpha > 0 and 0 < lo <= hi");
}

double
BoundedParetoSampler::sample(Rng &rng) const
{
    if (lo_ == hi_)
        return lo_;
    // Inverse CDF of the bounded Pareto distribution.
    const double u = rng.uniform();
    const double la = std::pow(lo_, alpha_);
    const double ha = std::pow(hi_, alpha_);
    const double x = std::pow(-(u * ha - u * la - ha) / (ha * la),
                              -1.0 / alpha_);
    return x;
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
    : scale_(4.0 * static_cast<double>(n))
{
    if (n == 0)
        throw std::invalid_argument("ZipfSampler: requires n > 0");
    if (n - 1 > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("ZipfSampler: requires n <= 2^32");
    if (std::isnan(s))
        throw std::invalid_argument("ZipfSampler: exponent s is NaN");
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = acc;
    }
    for (auto &v : cdf_)
        v /= acc;

    // floor(cdf[k] * 4n) is non-decreasing in k, so one forward walk
    // finds each bucket's first rank; buckets past every entry clamp to
    // n - 1.
    const std::size_t buckets = 4 * n;
    guide_.resize(buckets + 1);
    std::size_t k = 0;
    for (std::size_t j = 0; j <= buckets; ++j) {
        while (k + 1 < n && static_cast<std::size_t>(cdf_[k] * scale_) < j)
            ++k;
        guide_[j] = static_cast<std::uint32_t>(k);
    }
}

} // namespace dri::stats
