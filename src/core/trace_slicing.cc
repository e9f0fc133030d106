#include "core/trace_slicing.h"

#include <cmath>
#include <memory>
#include <utility>

#include "stats/flat_hash.h"

namespace dri::core {

int
shardOf(const ShardingPlan &plan, int table, std::int64_t row)
{
    if (plan.isSingular())
        return 0;
    const auto &assignments = plan.assignments();
    if (table < 0 || static_cast<std::size_t>(table) >= assignments.size())
        return -1;
    const auto &asg = assignments[static_cast<std::size_t>(table)];
    if (!asg.isSplit())
        return asg.shards[0];
    const auto ways = static_cast<std::int64_t>(asg.ways());
    const std::int64_t piece = ((row % ways) + ways) % ways;
    return asg.shards[static_cast<std::size_t>(piece)];
}

std::vector<workload::AccessTrace>
sliceTraceByShard(const ShardingPlan &plan,
                  const workload::AccessTrace &trace)
{
    std::vector<workload::AccessTrace> slices(
        plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards()));
    for (const auto &rec : trace.records()) {
        const int shard = shardOf(plan, rec.table_id, rec.row);
        if (shard >= 0)
            slices[static_cast<std::size_t>(shard)].add(rec);
    }
    return slices;
}

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
 * The model build behind both overloads. `source(fn)` calls
 * fn(const workload::AccessRecord &) once per access and must replay the
 * identical sequence every time it is called; it is called twice.
 */
template <class Source>
ShardCacheModels
buildModels(const model::ModelSpec &spec, const ShardingPlan &plan,
            const Source &source, const ShardCacheOptions &options)
{
    const std::size_t n_shards =
        plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards());
    std::vector<std::int64_t> row_bytes;
    row_bytes.reserve(spec.tables.size());
    for (const auto &t : spec.tables)
        row_bytes.push_back(t.storedRowBytes());

    // Pass 1: each shard's access count (its warmup boundary) and its
    // distinct-row universe (its budget under capacity_fraction). A
    // (table, row) routes to exactly one shard, so one set over all
    // shards finds every shard's distinct rows. Accesses to tables the
    // model does not define count towards the warmup position but not
    // the universe, as TieredCacheSim::access treats them.
    std::vector<std::size_t> accesses(n_shards, 0);
    std::vector<std::int64_t> universe(n_shards, 0);
    {
        stats::FlatHashSet64 seen;
        source([&](const workload::AccessRecord &rec) {
            const int shard = shardOf(plan, rec.table_id, rec.row);
            if (shard < 0)
                return;
            ++accesses[static_cast<std::size_t>(shard)];
            if (rec.table_id < 0 ||
                static_cast<std::size_t>(rec.table_id) >= row_bytes.size())
                return;
            if (seen.insert(cache::packRowKey(rec.table_id, rec.row)))
                universe[static_cast<std::size_t>(shard)] +=
                    row_bytes[static_cast<std::size_t>(rec.table_id)];
        });
    }

    // Pass 2: replay straight into the per-shard caches.
    std::vector<std::unique_ptr<cache::TieredCacheSim>> sims;
    sims.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
        cache::TieredCacheConfig cfg;
        cfg.policy = options.policy;
        cfg.capacity_bytes = options.capacity_bytes_per_shard;
        if (cfg.capacity_bytes <= 0)
            cfg.capacity_bytes = static_cast<std::int64_t>(
                std::llround(options.capacity_fraction *
                             static_cast<double>(universe[s])));
        cfg.warmup_fraction = options.warmup_fraction;
        cfg.admission = options.admission;
        cfg.tinylfu = options.tinylfu;
        sims.push_back(std::make_unique<cache::TieredCacheSim>(spec, cfg));
        sims.back()->begin(accesses[s]);
    }
    source([&](const workload::AccessRecord &rec) {
        const int shard = shardOf(plan, rec.table_id, rec.row);
        if (shard >= 0)
            sims[static_cast<std::size_t>(shard)]->access(rec.table_id,
                                                          rec.row);
    });

    ShardCacheModels out;
    out.models.reserve(n_shards);
    out.results.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
        out.results.push_back(sims[s]->result());
        out.models.push_back(std::make_shared<cache::CachedLookupModel>(
            out.results.back(), options.costs));
    }
    out.slice_universe_bytes = std::move(universe);
    return out;
}

} // namespace

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options)
{
    return buildModels(
        spec, plan,
        [&trace](auto &&fn) {
            for (const auto &rec : trace.records())
                fn(rec);
        },
        options);
}

ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec,
                      const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options)
{
    return buildModels(
        spec, plan,
        [&](auto &&fn) {
            workload::forEachAccess(spec, requests, popularity_skew, seed,
                                    fn);
        },
        options);
}

} // namespace dri::core
