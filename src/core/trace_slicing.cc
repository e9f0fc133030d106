#include "core/trace_slicing.h"

#include <algorithm>
#include <cmath>
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
 * The model build behind both overloads. `source(want, fn)` calls
 * fn(const workload::AccessRecord &) once per access and must replay the
 * identical sequence every time it is called, from any thread; each
 * worker calls it twice. `want` is the worker's table mask (a
 * `bool(std::size_t table)` predicate): the source may skip the accesses
 * of unwanted tables, none of which routes to the worker's shards, or
 * pass them anyway.
 */
template <class Source>
ShardCacheModels
buildModels(const model::ModelSpec &spec, const ShardingPlan &plan,
            const Source &source, const ShardCacheOptions &options,
            int workers)
{
    if (workers < 0)
        throw std::invalid_argument(
            "buildShardCacheModels: workers must be >= 0");
    std::string error; // shardOfRow needs a validated plan
    if (!plan.validate(spec, &error))
        throw std::invalid_argument(
            "buildShardCacheModels: sharding plan: " + error);
    const std::size_t n_shards =
        plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards());
    const std::size_t n_workers = std::min(
        n_shards,
        static_cast<std::size_t>(workers > 0 ? workers : usableCpus()));
    std::vector<std::int64_t> row_bytes;
    row_bytes.reserve(spec.tables.size());
    for (const auto &t : spec.tables)
        row_bytes.push_back(t.storedRowBytes());

    // Written by shard index, each slot by the one worker owning it.
    std::vector<cache::CacheSimResult> results(n_shards);
    std::vector<std::int64_t> universe(n_shards, 0);
    runConcurrently(n_workers, [&](std::size_t w) {
        // Worker w owns the shards s with s % n_workers == w; slot[s] is
        // s's index among them, -1 for another worker's shard.
        std::vector<std::size_t> own;
        std::vector<int> slot(n_shards, -1);
        for (std::size_t s = w; s < n_shards; s += n_workers) {
            slot[s] = static_cast<int>(own.size());
            own.push_back(s);
        }
        // A split table's pieces can lie on several workers' shards, so
        // slotOf still filters every wanted access.
        const auto slotOf = [&](const workload::AccessRecord &rec) {
            const int shard = plan.shardOfRow(rec.table_id, rec.row);
            return shard < 0 ? -1 : slot[static_cast<std::size_t>(shard)];
        };
        // The tables with at least one piece on an owned shard.
        std::vector<char> mask(spec.tables.size(), plan.isSingular());
        if (!plan.isSingular())
            for (const std::size_t s : own)
                for (const int t : plan.tablesOnShard(static_cast<int>(s)))
                    mask[static_cast<std::size_t>(t)] = 1;
        const auto want = [&mask](std::size_t t) { return mask[t] != 0; };

        // Pass 1: each owned shard's access count (its warmup boundary)
        // and its distinct-row universe (its budget under
        // capacity_fraction). A (table, row) routes to exactly one
        // shard, so one set over the owned shards finds each one's
        // distinct rows. Accesses to tables the model does not define
        // count towards the warmup position but not the universe, as
        // TieredCacheSim::access treats them.
        std::vector<std::size_t> accesses(own.size(), 0);
        std::vector<std::int64_t> bytes(own.size(), 0);
        {
            stats::FlatHashSet64 seen;
            source(want, [&](const workload::AccessRecord &rec) {
                const int k = slotOf(rec);
                if (k < 0)
                    return;
                ++accesses[static_cast<std::size_t>(k)];
                if (rec.table_id < 0 ||
                    static_cast<std::size_t>(rec.table_id) >=
                        row_bytes.size())
                    return;
                if (seen.insert(cache::packRowKey(rec.table_id, rec.row)))
                    bytes[static_cast<std::size_t>(k)] +=
                        row_bytes[static_cast<std::size_t>(rec.table_id)];
            });
        }

        // Pass 2: replay straight into the owned shards' caches.
        std::vector<std::unique_ptr<cache::TieredCacheSim>> sims;
        sims.reserve(own.size());
        for (std::size_t k = 0; k < own.size(); ++k) {
            cache::TieredCacheConfig cfg;
            cfg.policy = options.policy;
            cfg.capacity_bytes = options.capacity_bytes_per_shard;
            if (cfg.capacity_bytes <= 0)
                cfg.capacity_bytes = static_cast<std::int64_t>(
                    std::llround(options.capacity_fraction *
                                 static_cast<double>(bytes[k])));
            cfg.warmup_fraction = options.warmup_fraction;
            cfg.admission = options.admission;
            sims.push_back(
                std::make_unique<cache::TieredCacheSim>(spec, cfg));
            sims.back()->begin(accesses[k]);
        }
        source(want, [&](const workload::AccessRecord &rec) {
            const int k = slotOf(rec);
            if (k >= 0)
                sims[static_cast<std::size_t>(k)]->access(rec.table_id,
                                                          rec.row);
        });

        for (std::size_t k = 0; k < own.size(); ++k) {
            results[own[k]] = sims[k]->result();
            universe[own[k]] = bytes[k];
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
    return buildModels(
        spec, plan,
        // The records are stored already; slotOf filters them.
        [&trace](const auto &, auto &&fn) {
            for (const auto &rec : trace.records())
                fn(rec);
        },
        options, workers);
}

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options, int workers)
{
    // Bad requests throw here, before any worker starts.
    workload::detail::checkAccessSource(spec, requests, popularity_skew);
    return buildModels(
        spec, plan,
        [&](const auto &want, auto &&fn) {
            workload::forEachAccess(spec, requests, popularity_skew, seed,
                                    fn, want);
        },
        options, workers);
}

} // namespace dri::core
