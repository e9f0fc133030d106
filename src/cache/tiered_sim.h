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
     * Finite values outside [0, 1] clamp to it; NaN is rejected by
     * TieredCacheSim's constructor (std::invalid_argument), since it
     * would otherwise count no access at all.
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
 *
 * Rows reach the cache numbered (embedding_cache.h). access(table, row)
 * numbers them through the sim's own RowNumbering, one hash probe per
 * access, and the numbering persists across replays like the resident
 * set; replay(trace) uses it. access(RowRef) takes rows the caller
 * numbered densely, as core::buildShardCacheModels does in its counting
 * pass, and does no hash work at all. Feed one sim's cache one
 * numbering: the two id spaces are not told apart. Accesses to tables
 * the model does not define only advance the warmup position, through
 * either entry point, so they never reach the numbering or the cache.
 * Non-copyable and non-movable: the cache's eviction hook points back
 * into this object.
 */
class TieredCacheSim
{
  public:
    /** Throws std::invalid_argument for a NaN config.warmup_fraction. */
    TieredCacheSim(const model::ModelSpec &spec, TieredCacheConfig config);
    TieredCacheSim(const TieredCacheSim &) = delete;
    TieredCacheSim &operator=(const TieredCacheSim &) = delete;

    /** Replay the trace; returns post-warmup per-table statistics. */
    CacheSimResult replay(const workload::AccessTrace &trace);

    /**
     * Size the cache once for `rows` distinct numbered rows
     * (EmbeddingCache::reserve): a hint that changes no result.
     */
    void reserve(std::size_t rows) { cache_->reserve(rows); }

    /** Start a replay of `total_accesses` accesses: counters reset. */
    void begin(std::size_t total_accesses);

    /**
     * Feed the next access. Accesses to tables the model does not define
     * still advance the warmup position but are otherwise skipped.
     * Throws std::logic_error when no replay is open: before the first
     * begin(), or past the accesses begin() announced; and
     * std::out_of_range for a row of a defined table outside
     * packRowKey()'s domain.
     */
    void access(int table, std::int64_t row);

    /** access(table, row) for a row the caller numbered; throws likewise. */
    void
    access(RowRef row)
    {
        const std::size_t i = step();
        const auto t = static_cast<std::size_t>(row.table());
        if (t >= row_bytes_.size())
            return; // accesses to tables this model does not define
        count(i, t, cache_->access(row, row_bytes_[t]));
    }

    /**
     * Finish the replay; returns post-warmup per-table statistics.
     * Throws std::logic_error unless access() ran exactly the number of
     * times begin() announced.
     */
    CacheSimResult result();

  private:
    /** Advance the replay position; returns the access's index. */
    std::size_t
    step()
    {
        if (seen_ >= total_)
            outsideReplay();
        const std::size_t i = seen_++;
        if (i == warm_ && i > 0)
            endWarmup();
        return i;
    }

    /** Count access `i` to table `t` (post-warmup only). */
    void
    count(std::size_t i, std::size_t t, bool hit)
    {
        if (i < warm_)
            return; // warm the resident set without counting
        auto &ts = result_.per_table[t];
        ++ts.accesses;
        if (hit)
            ++ts.hits;
        else
            ++ts.misses;
    }

    [[noreturn]] void outsideReplay() const;
    /** Warmup boundary: discard counters, keep the resident set. */
    void endWarmup();

    TieredCacheConfig config_;
    /** Stored row bytes per table id, copied from the spec. */
    std::vector<std::int64_t> row_bytes_;
    std::unique_ptr<EmbeddingCache> cache_;
    /** Numbers the rows access(table, row) feeds the cache. */
    RowNumbering rows_;

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
