/**
 * @file
 * Sharding plans: the static table-to-shard mapping produced by a sharding
 * strategy (Section III-B). A plan records, for every embedding table,
 * either the single sparse shard holding it or the list of shards its rows
 * are split across (huge tables are partitioned row-wise by modulus,
 * Section III-A1). Shard 0..num_shards-1 are sparse shards; the main shard
 * is implicit.
 */
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "model/model_spec.h"

namespace dri::core {

/** Placement of one table. */
struct TableAssignment
{
    int table_id = 0;
    /**
     * Shards holding this table. Size 1: whole table on one shard.
     * Size > 1: rows split by `row % shards.size()` across the listed
     * shards, in modulus order. Consumers read it through
     * ShardingPlan::shardOfRow and fanoutGroups().
     */
    std::vector<int> shards;

    bool isSplit() const { return shards.size() > 1; }
    std::size_t ways() const { return shards.size(); }
};

/** Per-shard static attributes (the rows of Table II). */
struct ShardSummary
{
    int shard_id = 0;
    double capacity_gib = 0.0;
    /** Whole tables plus split-table pieces resident on the shard. */
    int table_count = 0;
    /** Expected lookups per request routed to this shard. */
    double estimated_pooling = 0.0;
    /** Nets with at least one table (piece) on this shard. */
    std::set<int> nets;
};

/** The rows `row mod ways == piece` of a table split `ways` ways. */
struct TablePiece
{
    int table = 0;
    int piece = 0;
    int ways = 0;
};

/** One RPC fan-out target (Section III-C): one net's tables on one shard. */
struct FanoutGroup
{
    int shard = 0;
    std::vector<int> whole_tables;
    std::vector<TablePiece> pieces;

    int tableCount() const
    {
        return static_cast<int>(whole_tables.size() + pieces.size());
    }
};

/** A complete sharding configuration. */
class ShardingPlan
{
  public:
    ShardingPlan() = default;
    ShardingPlan(std::string strategy, int num_shards,
                 std::vector<TableAssignment> assignments);

    const std::string &strategy() const { return strategy_; }
    /** Number of sparse shards; 0 means singular (non-distributed). */
    int numShards() const { return num_shards_; }
    bool isSingular() const { return num_shards_ == 0; }

    /** Display label, e.g. "load-bal 4 shards". */
    std::string label() const;

    const std::vector<TableAssignment> &assignments() const
    {
        return assignments_;
    }
    /** Throws std::out_of_range if the plan does not place `table_id`. */
    const TableAssignment &assignmentFor(int table_id) const;

    /**
     * The shard serving `row` of `table` in a validated plan: a whole
     * table's owner, else `shards[row mod ways]` (non-negative modulus).
     * 0 under a singular plan; -1 for a table the plan does not place.
     */
    int shardOfRow(int table, std::int64_t row) const
    {
        if (isSingular())
            return 0;
        const auto t = static_cast<std::size_t>(table);
        if (table < 0 || t >= assignments_.size())
            return -1;
        const auto &shards = assignments_[t].shards;
        if (shards.size() == 1)
            return shards[0];
        const auto ways = static_cast<std::int64_t>(shards.size());
        const std::int64_t piece = ((row % ways) + ways) % ways;
        return shards[static_cast<std::size_t>(piece)];
    }

    /** Table ids with at least a piece on the given shard. */
    std::vector<int> tablesOnShard(int shard_id) const;

    /** Logical bytes resident on a shard (split tables contribute 1/ways). */
    double capacityBytes(const model::ModelSpec &spec, int shard_id) const;

    /**
     * Expected request pooling routed to a shard, from per-table pooling
     * estimates indexed by table id (split tables contribute 1/ways).
     */
    double estimatedPooling(const std::vector<double> &per_table_pooling,
                            int shard_id) const;

    /** Table II row set: per-shard capacity, table count, pooling. */
    std::vector<ShardSummary>
    summarize(const model::ModelSpec &spec,
              const std::vector<double> &per_table_pooling) const;

    /**
     * Structural validation: every table assigned exactly once, shard ids
     * in range, split tables use distinct shards, and (if a memory limit is
     * given) no shard exceeds it.
     */
    bool validate(const model::ModelSpec &spec, std::string *error = nullptr,
                  std::int64_t shard_memory_limit = 0) const;

  private:
    std::string strategy_ = "singular";
    int num_shards_ = 0;
    std::vector<TableAssignment> assignments_;
};

/**
 * Per net of `spec.nets`, the groups of a validated plan in shard order
 * (none if singular); each lists whole tables, then pieces, by table id.
 * Serving and the test oracle's partitioner emit their RPCs from it.
 */
std::vector<std::vector<FanoutGroup>>
fanoutGroups(const model::ModelSpec &spec, const ShardingPlan &plan);

} // namespace dri::core
