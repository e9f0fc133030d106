/**
 * @file
 * Trace replay through a byte-budgeted embedding cache. TieredCacheSim is
 * the measurement half of the Bandana-style methodology the paper points
 * academics at: feed a recorded workload::AccessTrace, or a streamed
 * access source, through a DRAM-tier cache and read off per-table
 * hit/miss/eviction counts, instead of trusting the closed-form skew
 * curve in dc/paging. The resulting CacheSimResult feeds
 * CachedLookupModel, which converts hit rates into the per-lookup cost
 * coefficients the serving simulation consumes.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/admission.h"
#include "cache/embedding_cache.h"
#include "model/model_spec.h"
#include "workload/access_trace.h"

namespace dri::cache {

/** Replay configuration. */
struct TieredCacheConfig
{
    Policy policy = Policy::Lru;
    /** DRAM-tier byte budget. */
    std::int64_t capacity_bytes = 0;
    /**
     * Leading fraction of the trace replayed to warm the cache before
     * counters engage, removing compulsory-miss bias from the reported
     * rates (0 = cold start; 0.5 is typical for stationarity studies).
     */
    double warmup_fraction = 0.0;
    /** Admission filter wrapped around the eviction policy. */
    Admission admission = Admission::None;
};

/** Post-warmup replay statistics. */
struct CacheSimResult
{
    CacheStats total;
    /** Indexed by table id; tables never accessed stay all-zero. */
    std::vector<CacheStats> per_table;

    double
    hitRate(int table) const
    {
        if (table < 0 || static_cast<std::size_t>(table) >= per_table.size())
            return 0.0;
        return per_table[static_cast<std::size_t>(table)].hitRate();
    }

    double overallHitRate() const { return total.hitRate(); }
};

/**
 * Replays access streams against one cache instance. The cache's resident
 * set persists across replays (counters reset each one), so a trace can
 * be replayed twice for an explicit warm-start measurement.
 *
 * A replay is begin(n), exactly n access() calls, then result(). The
 * warmup boundary is taken from n, so a streamed source that cannot be
 * stored (core::buildShardCacheModels's request overload) counts its
 * accesses in a first pass and replays them in a second. replay(trace)
 * is that sequence over a stored trace; prefer it when one exists.
 * Non-copyable and non-movable: the cache's eviction hook points back
 * into this object.
 */
class TieredCacheSim
{
  public:
    TieredCacheSim(const model::ModelSpec &spec, TieredCacheConfig config);
    TieredCacheSim(const TieredCacheSim &) = delete;
    TieredCacheSim &operator=(const TieredCacheSim &) = delete;

    /** Replay the trace; returns post-warmup per-table statistics. */
    CacheSimResult replay(const workload::AccessTrace &trace);

    /** Start a replay of `total_accesses` accesses: counters reset. */
    void begin(std::size_t total_accesses);

    /**
     * Feed the next access. Accesses to tables the model does not define
     * still advance the warmup position but are otherwise skipped.
     */
    void access(int table, std::int64_t row);

    /**
     * Finish the replay; returns post-warmup per-table statistics.
     * Throws std::logic_error unless access() ran exactly the number of
     * times begin() announced.
     */
    CacheSimResult result();

    const EmbeddingCache &cache() const { return *cache_; }

  private:
    TieredCacheConfig config_;
    /** Stored row bytes per table id, copied from the spec. */
    std::vector<std::int64_t> row_bytes_;
    std::unique_ptr<EmbeddingCache> cache_;

    // State of the replay in progress.
    std::size_t total_ = 0;
    std::size_t warm_ = 0; //!< accesses before counters engage
    std::size_t seen_ = 0;
    CacheSimResult result_;
    /** Evictions per table, attributed through the cache's hook. */
    std::vector<std::int64_t> evictions_;
};

/**
 * One-shot replay: build a cold cache of the given policy and byte budget,
 * replay the trace, return the post-warmup statistics. The single entry
 * point the bench, example, and property tests share, so their hit-rate
 * curves stay cross-comparable by construction.
 */
CacheSimResult replayTrace(const model::ModelSpec &spec,
                           const workload::AccessTrace &trace,
                           Policy policy, std::int64_t capacity_bytes,
                           double warmup_fraction = 0.5,
                           Admission admission = Admission::None);

} // namespace dri::cache
