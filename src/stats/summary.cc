#include "stats/summary.h"

#include <algorithm>

namespace dri::stats {

double
utilizationFraction(double busy_integral, std::size_t capacity,
                    double elapsed)
{
    if (capacity == 0 || elapsed <= 0.0)
        return 0.0;
    const double u =
        busy_integral / (static_cast<double>(capacity) * elapsed);
    return std::min(1.0, std::max(0.0, u));
}

} // namespace dri::stats
