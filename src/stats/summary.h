/**
 * @file
 * Worker-pool utilization from a busy-time integral.
 */
#pragma once

#include <cstddef>

namespace dri::stats {

/**
 * Worker-pool utilization from a busy-time integral: busy unit-time over
 * capacity x elapsed, clamped to [0, 1]. Returns 0 when nothing elapsed.
 */
double utilizationFraction(double busy_integral, std::size_t capacity,
                           double elapsed);

} // namespace dri::stats
