#include "core/trace_slicing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/concurrency.h"

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
 * capacity_fraction) and its distinct-row count, which is also the next
 * free row number of the slice's cache.
 */
struct SliceCounts
{
    std::size_t size = 0;
    std::int64_t bytes = 0;
    std::size_t rows = 0;

    /** Number one more distinct row of `row_bytes` bytes. */
    std::uint32_t
    number(std::int64_t row_bytes)
    {
        bytes += row_bytes;
        return static_cast<std::uint32_t>(rows++);
    }
};

/**
 * A row's owned slot and its number in that slot's cache, in 12 bytes
 * (the streamed pass 2 holds one per (wanted table, rank)): the row's
 * 48 bits, its table being the caller's, and a 16-bit slot.
 */
struct Numbered
{
    static constexpr std::uint16_t kNone = 0xffff; //!< on no owned shard

    std::uint32_t id = 0;
    std::uint32_t row_lo = 0;
    std::uint16_t row_hi = 0;
    std::uint16_t slot = kNone;

    Numbered() = default;
    Numbered(std::uint32_t id_, int slot_, std::uint64_t key)
        : id(id_), row_lo(static_cast<std::uint32_t>(key)),
          row_hi(static_cast<std::uint16_t>(key >> 32)),
          slot(static_cast<std::uint16_t>(slot_))
    {
    }

    /** The RowRef of this row of `table`. */
    cache::RowRef
    ref(std::size_t table) const
    {
        return cache::RowRef{id, (std::uint64_t{table} << 48) |
                                     (std::uint64_t{row_hi} << 32) | row_lo};
    }
};

/** The owned shards' replay sims, in slot order. */
using Sims = std::vector<std::unique_ptr<cache::TieredCacheSim>>;

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
 * `number(group, counts)`, pass 1, which fills each owned shard's
 * SliceCounts, numbering its distinct rows 0..rows-1, and returns pass
 * 2: a callable taking the owned shards' Sims that feeds each one its
 * shard's accesses in stream order, as the RowRefs pass 1 numbered. It
 * runs on the worker's thread, and must give the same results whenever
 * it is called, from any thread.
 */
template <class Number>
ShardCacheModels
buildModels(const model::ModelSpec &spec, const ShardingPlan &plan,
            const Number &number, const ShardCacheOptions &options,
            int workers)
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
    if (n_shards >= Numbered::kNone)
        throw std::invalid_argument(
            "buildShardCacheModels: 65535 or more shards");
    const std::size_t n_workers = std::min(
        n_shards,
        static_cast<std::size_t>(workers > 0 ? workers : usableCpus()));

    // Written by shard index, each slot by the one worker owning it.
    std::vector<cache::CacheSimResult> results(n_shards);
    std::vector<std::int64_t> universe(n_shards, 0);
    runConcurrently(n_workers, [&](std::size_t w) {
        const ShardGroup group(spec, plan, n_shards, w, n_workers);
        std::vector<SliceCounts> counts(group.own().size());
        const auto replay = number(group, counts);

        // Pass 2: replay straight into the owned shards' caches, each
        // sized once for the rows pass 1 numbered.
        Sims sims;
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
            sims.back()->reserve(c.rows);
            sims.back()->begin(c.size);
        }
        replay(sims);

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
    // Each owned shard numbers its own distinct rows. Pass 1 keeps the
    // number of every record an owned shard serves, 4 bytes each in
    // stream order, so pass 2 replays numbers without a hash probe.
    // Both passes route a record first: one no owned shard serves costs
    // one slotOf. Records naming tables the model does not define count
    // towards the warmup position but not the universe, as
    // TieredCacheSim::access treats them.
    const auto inModel = [&spec](int table) {
        return table >= 0 &&
               static_cast<std::size_t>(table) < spec.tables.size();
    };
    const auto number = [&](const ShardGroup &group,
                            std::vector<SliceCounts> &counts) {
        std::vector<cache::RowNumbering> numbering(counts.size());
        std::vector<std::uint32_t> ids; // per owned in-model record
        for (const auto &rec : trace.records()) {
            const int k = group.slotOf(rec.table_id, rec.row);
            if (k < 0)
                continue;
            const auto slot = static_cast<std::size_t>(k);
            SliceCounts &c = counts[slot];
            ++c.size;
            if (!inModel(rec.table_id))
                continue;
            const auto t = static_cast<std::size_t>(rec.table_id);
            const std::uint32_t id =
                numbering[slot].number(rec.table_id, rec.row).id;
            if (id == c.rows) // a row new to the slot
                c.number(spec.tables[t].storedRowBytes());
            ids.push_back(id);
        }
        return [&, ids = std::move(ids)](Sims &sims) {
            const std::uint32_t *id = ids.data();
            for (const auto &rec : trace.records()) {
                const int k = group.slotOf(rec.table_id, rec.row);
                if (k < 0)
                    continue;
                auto &sim = *sims[static_cast<std::size_t>(k)];
                if (inModel(rec.table_id))
                    sim.access(cache::RowRef{
                        *id++, cache::packRowKey(rec.table_id, rec.row)});
                else
                    sim.access(rec.table_id, rec.row); // steps only
            }
        };
    };
    return buildModels(spec, plan, number, options, workers);
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
    // table's drawn ranks into the rows and shards they land on and
    // numbers each owned shard's distinct rows. Several ranks can land on
    // one row, so a table's drawn ranks are sorted by row and each row is
    // numbered once. Pass 2 replays every drawn rank as the RowRef the
    // fold gave it: one table lookup per access.
    const auto number = [&](const ShardGroup &group,
                            std::vector<SliceCounts> &counts) {
        std::vector<std::size_t> base(spec.tables.size(), 0);
        std::vector<std::size_t> wanted;
        for (std::size_t t = 0; t < spec.tables.size(); ++t)
            if (group.wants(t)) {
                base[t] = wanted.size() * kRanks;
                wanted.push_back(t);
            }
        const auto want = [&group](std::size_t t) { return group.wants(t); };
        std::vector<std::uint32_t> hist(wanted.size() * kRanks, 0);
        workload::forEachRank(
            spec, requests, popularity_skew, seed,
            [&](const workload::Request &, std::size_t t, std::size_t rank) {
                ++hist[base[t] + rank];
            },
            want);

        std::vector<Numbered> routed(hist.size());
        std::vector<std::pair<std::int64_t, std::size_t>> drawn; // row, rank
        for (const std::size_t t : wanted) {
            const auto table = static_cast<int>(t);
            drawn.clear();
            for (std::size_t rank = 0; rank < kRanks; ++rank)
                if (hist[base[t] + rank] > 0)
                    drawn.emplace_back(
                        workload::rowOfRank(rank, spec.tables[t].rows), rank);
            std::sort(drawn.begin(), drawn.end());
            Numbered row;
            for (std::size_t i = 0; i < drawn.size(); ++i) {
                const std::int64_t r = drawn[i].first;
                if (i == 0 || r != drawn[i - 1].first) {
                    const int k = group.slotOf(table, r);
                    row = Numbered();
                    if (k >= 0) {
                        // packRowKey throws outside its domain.
                        const std::uint64_t key = cache::packRowKey(table, r);
                        row = Numbered(
                            counts[static_cast<std::size_t>(k)].number(
                                spec.tables[t].storedRowBytes()),
                            k, key);
                    }
                }
                if (row.slot == Numbered::kNone)
                    continue;
                const std::size_t at = base[t] + drawn[i].second;
                counts[row.slot].size += hist[at];
                routed[at] = row;
            }
        }
        return [&, want, base = std::move(base),
                routed = std::move(routed)](Sims &sims) {
            workload::forEachRank(
                spec, requests, popularity_skew, seed,
                [&](const workload::Request &, std::size_t t,
                    std::size_t rank) {
                    const Numbered &n = routed[base[t] + rank];
                    if (n.slot != Numbered::kNone)
                        sims[n.slot]->access(n.ref(t));
                },
                want);
        };
    };
    return buildModels(spec, plan, number, options, workers);
}

} // namespace dri::core
