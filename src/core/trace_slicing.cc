#include "core/trace_slicing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/concurrency.h"
#include "stats/flat_hash.h"

namespace dri::core {

double
ShardCacheModels::aggregateHitRate() const
{
    std::int64_t accesses = 0, hits = 0;
    for (const auto &r : results) {
        accesses += r.total.accesses;
        hits += r.total.hits;
    }
    return accesses > 0
               ? static_cast<double>(hits) / static_cast<double>(accesses)
               : 0.0;
}

namespace {

/**
 * One worker's share of the build: worker w of n owns the shards s with
 * s % n == w. A split table's pieces can lie on several workers' shards,
 * so slotOf still filters every access of a wanted table.
 */
class ShardGroup
{
  public:
    ShardGroup(const model::ModelSpec &spec, const ShardingPlan &plan,
               std::size_t n_shards, std::size_t w, std::size_t n_workers)
        : plan_(plan), slot_(n_shards, -1),
          mask_(spec.tables.size(), plan.isSingular())
    {
        for (std::size_t s = w; s < n_shards; s += n_workers) {
            slot_[s] = static_cast<int>(own_.size());
            own_.push_back(s);
        }
        if (!plan.isSingular())
            for (const std::size_t s : own_)
                for (const int t : plan.tablesOnShard(static_cast<int>(s)))
                    mask_[static_cast<std::size_t>(t)] = 1;
    }

    /** The owned shards, in slot order. */
    const std::vector<std::size_t> &own() const { return own_; }

    /** Whether table t has a piece on an owned shard. */
    bool wants(std::size_t t) const { return mask_[t] != 0; }

    /** The slot of the owned shard serving (table, row), else -1. */
    int
    slotOf(int table, std::int64_t row) const
    {
        const int shard = plan_.shardOfRow(table, row);
        return shard < 0 ? -1 : slot_[static_cast<std::size_t>(shard)];
    }

  private:
    const ShardingPlan &plan_;
    std::vector<std::size_t> own_;
    std::vector<int> slot_;  //!< shard -> index in own_, -1 if not owned
    std::vector<char> mask_; //!< table -> wants()
};

/**
 * Pass-1 figures of one owned shard's slice: its size in accesses (the
 * replay's warmup boundary), its distinct-row bytes (the budget under
 * capacity_fraction) and its distinct-row count (the cache's sizing
 * hint).
 */
struct SliceCounts
{
    std::size_t size = 0;
    std::int64_t bytes = 0;
    std::size_t rows = 0;
};

/** Throws std::invalid_argument for options that would silently zero a
 *  model; see ShardCacheOptions. */
void
checkOptions(const ShardCacheOptions &options)
{
    if (!std::isfinite(options.capacity_fraction) ||
        options.capacity_fraction < 0.0)
        throw std::invalid_argument(
            "buildShardCacheModels: capacity_fraction must be finite and "
            ">= 0");
    if (options.capacity_bytes_per_shard < 0)
        throw std::invalid_argument(
            "buildShardCacheModels: capacity_bytes_per_shard must be >= 0");
    if (std::isnan(options.warmup_fraction))
        throw std::invalid_argument(
            "buildShardCacheModels: warmup_fraction is NaN");
}

/**
 * The model build behind both overloads. Each worker calls
 * `count(group)` for its shards' pass-1 figures, then replays through
 * `source(group, fn)`, which must call fn(int table, std::int64_t row)
 * once per access in stream order, the same sequence whenever it is
 * called, from any thread. The source may skip the accesses of tables
 * the group does not want, none of which routes to its shards, or pass
 * them anyway.
 */
template <class Count, class Source>
ShardCacheModels
buildModels(const model::ModelSpec &spec, const ShardingPlan &plan,
            const Count &count, const Source &source,
            const ShardCacheOptions &options, int workers)
{
    if (workers < 0)
        throw std::invalid_argument(
            "buildShardCacheModels: workers must be >= 0");
    checkOptions(options);
    std::string error; // shardOfRow needs a validated plan
    if (!plan.validate(spec, &error))
        throw std::invalid_argument(
            "buildShardCacheModels: sharding plan: " + error);
    const std::size_t n_shards =
        plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards());
    const std::size_t n_workers = std::min(
        n_shards,
        static_cast<std::size_t>(workers > 0 ? workers : usableCpus()));

    // Written by shard index, each slot by the one worker owning it.
    std::vector<cache::CacheSimResult> results(n_shards);
    std::vector<std::int64_t> universe(n_shards, 0);
    runConcurrently(n_workers, [&](std::size_t w) {
        const ShardGroup group(spec, plan, n_shards, w, n_workers);
        const std::vector<SliceCounts> counts = count(group);

        // Pass 2: replay straight into the owned shards' caches, each
        // sized once for the rows its budget is expected to hold.
        std::vector<std::unique_ptr<cache::TieredCacheSim>> sims;
        sims.reserve(counts.size());
        for (const SliceCounts &c : counts) {
            cache::TieredCacheConfig cfg;
            cfg.policy = options.policy;
            cfg.capacity_bytes = options.capacity_bytes_per_shard;
            if (cfg.capacity_bytes <= 0)
                cfg.capacity_bytes = static_cast<std::int64_t>(
                    std::llround(options.capacity_fraction *
                                 static_cast<double>(c.bytes)));
            cfg.warmup_fraction = options.warmup_fraction;
            cfg.admission = options.admission;
            sims.push_back(
                std::make_unique<cache::TieredCacheSim>(spec, cfg));
            if (c.bytes > 0)
                sims.back()->reserve(static_cast<std::size_t>(
                    static_cast<double>(c.rows) *
                    std::min(1.0, static_cast<double>(cfg.capacity_bytes) /
                                      static_cast<double>(c.bytes))));
            sims.back()->begin(c.size);
        }
        source(group, [&](int table, std::int64_t row) {
            const int k = group.slotOf(table, row);
            if (k >= 0)
                sims[static_cast<std::size_t>(k)]->access(table, row);
        });

        for (std::size_t k = 0; k < counts.size(); ++k) {
            results[group.own()[k]] = sims[k]->result();
            universe[group.own()[k]] = counts[k].bytes;
        }
    });

    ShardCacheModels out;
    out.models.reserve(n_shards);
    for (const auto &r : results)
        out.models.push_back(
            std::make_shared<cache::CachedLookupModel>(r, options.costs));
    out.results = std::move(results);
    out.slice_universe_bytes = std::move(universe);
    return out;
}

} // namespace

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options, int workers)
{
    // A (table, row) routes to exactly one shard, so one set over the
    // owned shards finds each one's distinct rows. Records naming tables
    // the model does not define count towards the warmup position but
    // not the universe, as TieredCacheSim::access treats them.
    const auto count = [&](const ShardGroup &group) {
        std::vector<SliceCounts> counts(group.own().size());
        stats::FlatHashSet64 seen;
        for (const auto &rec : trace.records()) {
            const int k = group.slotOf(rec.table_id, rec.row);
            if (k < 0)
                continue;
            SliceCounts &c = counts[static_cast<std::size_t>(k)];
            ++c.size;
            const auto t = static_cast<std::size_t>(rec.table_id);
            if (rec.table_id < 0 || t >= spec.tables.size())
                continue;
            if (seen.insert(cache::packRowKey(rec.table_id, rec.row))) {
                c.bytes += spec.tables[t].storedRowBytes();
                ++c.rows;
            }
        }
        return counts;
    };
    // The records are stored already; slotOf filters them.
    const auto source = [&trace](const ShardGroup &, auto &&fn) {
        for (const auto &rec : trace.records())
            fn(rec.table_id, rec.row);
    };
    return buildModels(spec, plan, count, source, options, workers);
}

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options, int workers)
{
    constexpr std::size_t kRanks = workload::kPopularityRanks;
    // Bad requests throw here, before any worker starts; so does a table
    // drawn often enough to overflow a rank counter.
    workload::detail::checkAccessSource(spec, requests, popularity_skew);
    std::vector<std::uint64_t> draws(spec.tables.size(), 0);
    for (const auto &req : requests)
        for (std::size_t t = 0; t < draws.size(); ++t)
            draws[t] += static_cast<std::uint64_t>(
                std::max(req.table_lookups[t], 0));
    for (std::size_t t = 0; t < draws.size(); ++t)
        if (draws[t] > std::numeric_limits<std::uint32_t>::max())
            throw std::length_error(
                "buildShardCacheModels: table '" + spec.tables[t].name +
                "' has 2^32 or more lookups, past a rank counter");

    // Pass 1 counts draws per (wanted table, rank), then folds each
    // table's drawn ranks into the rows and shards they land on. Several
    // ranks can land on one row, so a table's rows are deduplicated
    // before they count towards a shard's universe.
    const auto count = [&](const ShardGroup &group) {
        std::vector<std::size_t> base(spec.tables.size(), 0);
        std::vector<std::size_t> wanted;
        for (std::size_t t = 0; t < spec.tables.size(); ++t)
            if (group.wants(t)) {
                base[t] = wanted.size() * kRanks;
                wanted.push_back(t);
            }
        std::vector<std::uint32_t> hist(wanted.size() * kRanks, 0);
        workload::forEachRank(
            spec, requests, popularity_skew, seed,
            [&](const workload::Request &, std::size_t t, std::size_t rank) {
                ++hist[base[t] + rank];
            },
            [&group](std::size_t t) { return group.wants(t); });

        std::vector<SliceCounts> counts(group.own().size());
        std::vector<std::int64_t> rows;
        for (const std::size_t t : wanted) {
            const auto table = static_cast<int>(t);
            rows.clear();
            for (std::size_t rank = 0; rank < kRanks; ++rank) {
                const std::uint32_t n = hist[base[t] + rank];
                if (n == 0)
                    continue;
                const std::int64_t row =
                    workload::rowOfRank(rank, spec.tables[t].rows);
                const int k = group.slotOf(table, row);
                if (k < 0)
                    continue;
                counts[static_cast<std::size_t>(k)].size += n;
                rows.push_back(row);
            }
            std::sort(rows.begin(), rows.end());
            rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
            for (const std::int64_t row : rows) {
                cache::packRowKey(table, row); // throws outside its domain
                SliceCounts &c =
                    counts[static_cast<std::size_t>(group.slotOf(table, row))];
                c.bytes += spec.tables[t].storedRowBytes();
                ++c.rows;
            }
        }
        return counts;
    };
    const auto source = [&](const ShardGroup &group, auto &&fn) {
        workload::forEachAccess(
            spec, requests, popularity_skew, seed,
            [&fn](const workload::AccessRecord &rec) {
                fn(rec.table_id, rec.row);
            },
            [&group](std::size_t t) { return group.wants(t); });
    };
    return buildModels(spec, plan, count, source, options, workers);
}

} // namespace dri::core
