/**
 * @file
 * Paging-from-disk alternative (Section X names "paging-from-disk" as a
 * design-space expansion; the introduction discusses on-demand paging of
 * the model from SSD as a single-server alternative to distribution).
 *
 * Model: a singular server keeps as many embedding rows resident in DRAM
 * as fit; the remainder page from NVMe on demand. With a Zipf-skewed row
 * popularity, the DRAM hit rate follows from the cached fraction; the
 * expected lookup cost blends DRAM gathers with SSD reads. The resulting
 * per-lookup coefficient plugs directly into ServingConfig::lookup_base_ns
 * so the same serving simulation evaluates the paged alternative.
 */
#pragma once

#include <cstdint>

#include "dc/platform.h"

namespace dri::dc {

/** NVMe random-read latency per paged-in row (~90 us). */
inline constexpr double kSsdLookupNs = 90000.0;

/** SSD and caching parameters for the paged configuration. */
struct PagingConfig
{
    /** DRAM gather cost per resident row (matches ServingConfig). */
    double dram_lookup_ns = 25.0;
    /**
     * Access-skew exponent: fraction of accesses hitting the cached
     * fraction f of rows is approximately f^(1-skew) for skew in [0, 1).
     * 0 = uniform accesses (hit rate == cached fraction); values near 1 =
     * highly skewed (small caches capture most accesses). Embedding-table
     * traffic is skewed but heavy-tailed (the Bandana observation).
     */
    double access_skew = 0.6;
};

/** Fraction of the model resident in DRAM. */
double residentFraction(std::int64_t model_bytes, const Platform &platform);

/**
 * Expected DRAM hit rate given the resident fraction and access skew.
 * Inputs are clamped: resident_fraction to [0, 1]; access_skew below 0 is
 * treated as uniform, and access_skew >= 1 takes the skew -> 1 limit of
 * f^(1-skew), which is 1 for any positive resident fraction.
 */
double hitRate(double resident_fraction, double access_skew);

/**
 * Expected per-lookup cost (ns) for a paged singular deployment of
 * `model_bytes` on `platform`, from the closed-form skew curve.
 */
double pagedLookupNs(std::int64_t model_bytes, const Platform &platform,
                     const PagingConfig &config);

} // namespace dri::dc
