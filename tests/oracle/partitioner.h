/**
 * @file
 * Model partitioner: rewrites a singular model into the distributed form of
 * Fig. 2b under a sharding plan, mirroring the paper's custom partitioning
 * tool (Section III-C): per fanoutGroups() entry (serving's fan-out), one
 * RPC operator in the main net and one net on that sparse shard. Row-split
 * tables get SplitIndicesOp / SumOp pieces that route rows as shardOfRow.
 *
 * Guarantees the paper's serving constraints: every sparse-shard net is
 * stateless (depends only on request inputs) and the shard graph is
 * acyclic (main -> sparse only).
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/sharding_plan.h"
#include "oracle/net.h"
#include "oracle/dlrm_builder.h"

namespace dri::core {

/** Name of the net invoked on a sparse shard for one original net. */
std::string shardNetName(int shard_id, int net_id);

/** Blob name of one row-split piece of a table's indices / output. */
std::string splitIdsBlobName(const model::TableSpec &table, int piece);
std::string splitEmbBlobName(const model::TableSpec &table, int piece);

/** The partitioned model. */
struct DistributedModel
{
    const model::BuiltModel *base = nullptr;
    const ShardingPlan *plan = nullptr;

    /** Rewritten main-shard nets, in execution order. */
    std::vector<graph::NetDef> main_nets;

    /** Per sparse shard: its generated nets (one per original net that has
     *  tables there), keyed by shard id. */
    std::map<int, std::vector<graph::NetDef>> shard_nets;

    /** Find a shard net by name; nullptr if absent. */
    const graph::NetDef *findShardNet(int shard_id,
                                      const std::string &name) const;
};

/**
 * Partition `built` under `plan`. A singular plan yields main nets that are
 * clones of the original nets and no shard nets. A plan that fails
 * validate(*built.spec) throws std::invalid_argument.
 */
DistributedModel partitionModel(const model::BuiltModel &built,
                                const ShardingPlan &plan);

} // namespace dri::core
