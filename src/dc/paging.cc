#include "dc/paging.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dri::dc {

double
residentFraction(std::int64_t model_bytes, const Platform &platform)
{
    assert(model_bytes > 0);
    const double f = static_cast<double>(platform.usableModelBytes()) /
                     static_cast<double>(model_bytes);
    return std::clamp(f, 0.0, 1.0);
}

double
hitRate(double resident_fraction, double access_skew)
{
    const double f = std::clamp(resident_fraction, 0.0, 1.0);
    if (f <= 0.0)
        return 0.0;
    if (access_skew >= 1.0) {
        // lim_{s -> 1} f^(1-s) = 1 for any f > 0: the continuous Zipf mass
        // concentrates entirely in the head. Returning the limit keeps the
        // curve finite instead of dividing toward NaN/inf.
        return 1.0;
    }
    const double s = std::max(access_skew, 0.0);
    // Zipf-like mass captured by the hottest fraction f of rows:
    // integral of x^(-skew) over [0, f] normalized -> f^(1 - skew).
    return std::pow(f, 1.0 - s);
}

double
pagedLookupNs(std::int64_t model_bytes, const Platform &platform,
              const PagingConfig &config)
{
    const double f = residentFraction(model_bytes, platform);
    const double h = hitRate(f, config.access_skew);
    return h * config.dram_lookup_ns + (1.0 - h) * kSsdLookupNs;
}

} // namespace dri::dc
