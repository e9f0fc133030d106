/**
 * @file
 * Hit-rate → cost conversion. A CachedLookupModel owns one number per
 * table — the DRAM-tier hit rate, measured by TieredCacheSim or supplied
 * analytically — plus the tier costs, and blends them into the expected
 * per-lookup nanoseconds that dc/paging and core/serving consume:
 *
 *   lookup_ns(t) = h(t) * hit_ns + (1 - h(t)) * miss_ns
 *
 * The analytic constructor makes the closed-form skew curve of dc::hitRate
 * a degenerate case of the same pipeline, which is exactly what the cache
 * benches exploit to validate the simulator against the formula.
 */
#pragma once

#include <vector>

#include "cache/tiered_sim.h"

namespace dri::cache {

/** Cost of one row gather by the tier that satisfies it. */
struct TierCosts
{
    /** Row resident in the cache tier (DRAM gather). */
    double hit_ns = 25.0;
    /** Row fetched from the backing tier (NVMe page-in or remote shard). */
    double miss_ns = 90000.0;
};

/** Per-table blended lookup-cost model. */
class CachedLookupModel
{
  public:
    CachedLookupModel() = default;

    /** Build from measured replay statistics. */
    CachedLookupModel(const CacheSimResult &sim, TierCosts costs);

    /**
     * Degenerate analytic model: every one of `num_tables` tables gets the
     * same externally computed hit rate (e.g. dc::hitRate(f, skew)).
     */
    static CachedLookupModel fromHitRate(std::size_t num_tables,
                                         double hit_rate, TierCosts costs);

    /**
     * A copy with every table's hit rate scaled by `factor` (clamped to
     * [0, 1]); tables without data stay without data. The fleet
     * simulator uses this to model cold caches on freshly provisioned
     * replicas: during the post-reconfiguration warmup window a
     * scaled-up shard serves at a fraction of its steady-state hit rate.
     */
    CachedLookupModel scaled(double factor) const;

    /** Whether the model has data (any accesses) for this table. */
    bool hasTable(int table) const;

    /** Measured hit rate for the table; 0 when absent. */
    double hitRate(int table) const;

    /** Access-weighted overall hit rate. */
    double overallHitRate() const { return overall_; }

    /**
     * Blended per-lookup cost using the model's own hit cost. A table the
     * model has no data for (hasTable(table) == false) is priced
     * pessimistically at the full miss cost — callers wanting a different
     * fallback (core/serving falls back to its flat coefficient) must
     * check hasTable() first.
     */
    double lookupNs(int table) const;

    /**
     * Blend with a caller-calibrated hit cost — core/serving passes its
     * platform-specific per-table DRAM gather cost here so only the miss
     * path comes from the model.
     */
    double lookupNs(int table, double hit_ns) const;

  private:
    TierCosts costs_;
    /** Hit rate per table id; negative = no data. */
    std::vector<double> rates_;
    double overall_ = 0.0;
};

} // namespace dri::cache
