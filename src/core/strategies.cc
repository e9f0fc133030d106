#include "core/strategies.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

namespace dri::core {

namespace {

/** Throws std::invalid_argument, naming @p who, unless num_shards >= 1. */
void
requireShards(const char *who, int num_shards)
{
    if (num_shards < 1)
        throw std::invalid_argument(std::string(who) +
                                    ": num_shards must be >= 1, got " +
                                    std::to_string(num_shards));
}

/** LPT greedy: assign items (heaviest first) to the least-loaded shard. */
ShardingPlan
greedyBalance(const model::ModelSpec &spec, int num_shards,
              const std::vector<double> &weight, const std::string &name)
{
    std::vector<std::size_t> order(spec.tables.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (weight[a] != weight[b])
            return weight[a] > weight[b];
        return a < b; // deterministic tie-break
    });

    std::vector<double> load(static_cast<std::size_t>(num_shards), 0.0);
    std::vector<TableAssignment> assignments;
    assignments.reserve(spec.tables.size());
    for (std::size_t idx : order) {
        const auto lightest = static_cast<int>(
            std::min_element(load.begin(), load.end()) - load.begin());
        TableAssignment a;
        a.table_id = static_cast<int>(idx);
        a.shards = {lightest};
        assignments.push_back(a);
        load[static_cast<std::size_t>(lightest)] += weight[idx];
    }
    return ShardingPlan(name, num_shards, std::move(assignments));
}

} // namespace

std::string
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Singular:
        return "singular";
      case Strategy::OneShard:
        return "1-shard";
      case Strategy::CapacityBalanced:
        return "cap-bal";
      case Strategy::LoadBalanced:
        return "load-bal";
      case Strategy::Nsbp:
        return "NSBP";
    }
    return "unknown";
}

ShardingPlan
makeSingular(const model::ModelSpec &spec)
{
    (void)spec;
    return ShardingPlan("singular", 0, {});
}

ShardingPlan
makeOneShard(const model::ModelSpec &spec)
{
    std::vector<TableAssignment> assignments;
    assignments.reserve(spec.tables.size());
    for (const auto &t : spec.tables)
        assignments.push_back({t.id, {0}});
    return ShardingPlan("1-shard", 1, std::move(assignments));
}

ShardingPlan
makeCapacityBalanced(const model::ModelSpec &spec, int num_shards)
{
    requireShards("makeCapacityBalanced", num_shards);
    std::vector<double> bytes;
    bytes.reserve(spec.tables.size());
    for (const auto &t : spec.tables)
        bytes.push_back(static_cast<double>(t.logicalBytes()));
    return greedyBalance(spec, num_shards, bytes,
                         strategyName(Strategy::CapacityBalanced));
}

ShardingPlan
makeLoadBalanced(const model::ModelSpec &spec, int num_shards,
                 const std::vector<double> &pooling_estimates)
{
    requireShards("makeLoadBalanced", num_shards);
    if (pooling_estimates.size() != spec.tables.size())
        throw std::invalid_argument(
            "makeLoadBalanced: pooling_estimates has " +
            std::to_string(pooling_estimates.size()) +
            " entries, expected one per table (" +
            std::to_string(spec.tables.size()) + ")");
    return greedyBalance(spec, num_shards, pooling_estimates,
                         strategyName(Strategy::LoadBalanced));
}

ShardingPlan
makeNsbp(const model::ModelSpec &spec, int num_shards,
         std::int64_t huge_table_limit_bytes)
{
    requireShards("makeNsbp", num_shards);

    // A bin holds tables of exactly one net.
    struct Bin
    {
        int net_id;
        double bytes = 0.0;
        std::vector<int> tables;
    };

    const double total =
        static_cast<double>(spec.totalCapacityBytes());
    // Bin size limit with modest slack, mirroring the parameter-server
    // bin sizes used during training (Section III-B3).
    const double limit = total / static_cast<double>(num_shards) * 1.15;

    std::vector<Bin> bins;
    std::vector<int> huge_tables; // row-split later

    for (const auto &net : spec.nets) {
        // First-fit-decreasing within the net.
        auto net_tables = spec.tablesForNet(net.id);
        std::sort(net_tables.begin(), net_tables.end(),
                  [](const model::TableSpec *a, const model::TableSpec *b) {
                      if (a->logicalBytes() != b->logicalBytes())
                          return a->logicalBytes() > b->logicalBytes();
                      return a->id < b->id;
                  });
        for (const auto *t : net_tables) {
            const double bytes = static_cast<double>(t->logicalBytes());
            // A table is "huge" — and must be row-split — when it exceeds
            // either the bin limit or the per-server memory cap.
            const bool over_server =
                huge_table_limit_bytes > 0 &&
                t->logicalBytes() > huge_table_limit_bytes;
            if (bytes > limit || over_server) {
                huge_tables.push_back(t->id);
                continue;
            }
            Bin *fit = nullptr;
            for (auto &b : bins)
                if (b.net_id == net.id && b.bytes + bytes <= limit) {
                    fit = &b;
                    break;
                }
            if (!fit) {
                bins.push_back(Bin{net.id, 0.0, {}});
                fit = &bins.back();
            }
            fit->bytes += bytes;
            fit->tables.push_back(t->id);
        }
    }

    // Shards available after regular bins are placed host the huge tables'
    // row splits. Guarantee at least one shard per huge table.
    const int reserved_for_huge =
        huge_tables.empty()
            ? 0
            : std::max<int>(static_cast<int>(huge_tables.size()),
                            num_shards - static_cast<int>(bins.size()));

    // Too many bins: merge the smallest same-net pair until they fit.
    while (static_cast<int>(bins.size()) + reserved_for_huge > num_shards) {
        int best_i = -1, best_j = -1;
        double best_sum = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i)
            for (std::size_t j = i + 1; j < bins.size(); ++j) {
                if (bins[i].net_id != bins[j].net_id)
                    continue;
                const double sum = bins[i].bytes + bins[j].bytes;
                if (best_i < 0 || sum < best_sum) {
                    best_i = static_cast<int>(i);
                    best_j = static_cast<int>(j);
                    best_sum = sum;
                }
            }
        if (best_i < 0)
            throw std::invalid_argument(
                "makeNsbp: num_shards " + std::to_string(num_shards) +
                " is too few to keep each net's tables apart");
        auto &keep = bins[static_cast<std::size_t>(best_i)];
        auto &drop = bins[static_cast<std::size_t>(best_j)];
        keep.bytes += drop.bytes;
        keep.tables.insert(keep.tables.end(), drop.tables.begin(),
                           drop.tables.end());
        bins.erase(bins.begin() + best_j);
    }

    // Too few bins (more shards than packing produced, and no huge
    // tables to absorb them): split the largest multi-table bin into two
    // capacity-balanced halves until every shard is used.
    while (huge_tables.empty() &&
           static_cast<int>(bins.size()) < num_shards) {
        int victim = -1;
        for (std::size_t i = 0; i < bins.size(); ++i)
            if (bins[i].tables.size() > 1 &&
                (victim < 0 ||
                 bins[i].bytes > bins[static_cast<std::size_t>(victim)].bytes))
                victim = static_cast<int>(i);
        if (victim < 0)
            throw std::invalid_argument(
                "makeNsbp: num_shards " + std::to_string(num_shards) +
                " exceeds the tables available to populate every shard");
        Bin &src = bins[static_cast<std::size_t>(victim)];
        // LPT split of the victim's tables into two halves.
        std::sort(src.tables.begin(), src.tables.end(), [&](int a, int b) {
            const auto ba =
                spec.tables[static_cast<std::size_t>(a)].logicalBytes();
            const auto bb =
                spec.tables[static_cast<std::size_t>(b)].logicalBytes();
            if (ba != bb)
                return ba > bb;
            return a < b;
        });
        Bin half{src.net_id, 0.0, {}};
        Bin rest{src.net_id, 0.0, {}};
        for (int t : src.tables) {
            const double bytes = static_cast<double>(
                spec.tables[static_cast<std::size_t>(t)].logicalBytes());
            Bin &target = half.bytes <= rest.bytes ? half : rest;
            target.bytes += bytes;
            target.tables.push_back(t);
        }
        src = std::move(half);
        bins.push_back(std::move(rest));
    }

    // Materialize assignments: bins take the first shards, huge tables
    // split across the remainder.
    std::vector<TableAssignment> assignments(spec.tables.size());
    for (std::size_t i = 0; i < spec.tables.size(); ++i)
        assignments[i].table_id = static_cast<int>(i);

    int next_shard = 0;
    for (const auto &b : bins) {
        for (int t : b.tables)
            assignments[static_cast<std::size_t>(t)].shards = {next_shard};
        ++next_shard;
    }
    if (!huge_tables.empty()) {
        const int remaining = num_shards - next_shard;
        assert(remaining >= static_cast<int>(huge_tables.size()));
        // Distribute remaining shards across huge tables, largest first.
        std::sort(huge_tables.begin(), huge_tables.end(), [&](int a, int b) {
            const auto ba =
                spec.tables[static_cast<std::size_t>(a)].logicalBytes();
            const auto bb =
                spec.tables[static_cast<std::size_t>(b)].logicalBytes();
            if (ba != bb)
                return ba > bb;
            return a < b;
        });
        double huge_total = 0.0;
        for (int t : huge_tables)
            huge_total += static_cast<double>(
                spec.tables[static_cast<std::size_t>(t)].logicalBytes());
        int given = 0;
        for (std::size_t i = 0; i < huge_tables.size(); ++i) {
            const int t = huge_tables[i];
            const double frac =
                static_cast<double>(
                    spec.tables[static_cast<std::size_t>(t)].logicalBytes()) /
                huge_total;
            int ways = (i + 1 == huge_tables.size())
                           ? remaining - given
                           : std::max(1, static_cast<int>(frac * remaining));
            ways = std::min(ways, remaining - given -
                                      static_cast<int>(huge_tables.size() -
                                                       i - 1));
            ways = std::max(ways, 1);
            auto &a = assignments[static_cast<std::size_t>(t)];
            a.shards.clear();
            for (int w = 0; w < ways; ++w)
                a.shards.push_back(next_shard++);
            given += ways;
        }
    }
    return ShardingPlan(strategyName(Strategy::Nsbp), num_shards,
                        std::move(assignments));
}

} // namespace dri::core
