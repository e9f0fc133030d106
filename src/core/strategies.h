/**
 * @file
 * The sharding strategies of Table I.
 *
 * - singular: distributed inference disabled, whole model on one server.
 * - 1-shard: all embedding tables on one sparse shard (the latency
 *   worst case — nothing parallelizes).
 * - capacity-balanced: greedy placement equalizing per-shard logical bytes.
 * - load-balanced: greedy placement equalizing per-shard estimated pooling
 *   factor (lookups), estimated by sampling requests as in Section III-B2.
 * - net-specific bin-packing (NSBP): tables grouped by net, packed into
 *   size-limited bins; tables larger than the per-server limit are
 *   row-split across the remaining shards (how DRM3's 178.8 GB table is
 *   served).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/sharding_plan.h"
#include "model/model_spec.h"

namespace dri::core {

/** Singular (non-distributed) configuration. */
ShardingPlan makeSingular(const model::ModelSpec &spec);

/** Every table on a single sparse shard. */
ShardingPlan makeOneShard(const model::ModelSpec &spec);

/**
 * Capacity-balanced: sort tables by logical bytes descending and assign
 * each to the currently least-loaded shard (LPT greedy). Throws
 * std::invalid_argument when num_shards < 1.
 */
ShardingPlan makeCapacityBalanced(const model::ModelSpec &spec,
                                  int num_shards);

/**
 * Load-balanced: LPT greedy on estimated per-table pooling factors
 * (indexed by table id, e.g. from RequestGenerator::estimatePoolingFactors).
 * Throws std::invalid_argument when num_shards < 1 or pooling_estimates
 * does not hold one entry per table.
 */
ShardingPlan makeLoadBalanced(const model::ModelSpec &spec, int num_shards,
                              const std::vector<double> &pooling_estimates);

/**
 * Net-specific bin-packing. Tables are grouped by net and packed
 * first-fit-decreasing into bins limited to ~total/num_shards (with slack);
 * bins never mix nets. Tables exceeding `huge_table_limit_bytes` (per-server
 * usable memory) are row-split across all shards left over after packing.
 * If packing produces more bins than shards, the smallest same-net bins are
 * merged.
 *
 * @param huge_table_limit_bytes tables above this are row-split; pass the
 *        platform's usable model bytes. 0 disables splitting.
 *
 * Throws std::invalid_argument when num_shards < 1, when it is too few to
 * keep the nets' bins apart, or when it exceeds the shards the tables can
 * populate.
 */
ShardingPlan makeNsbp(const model::ModelSpec &spec, int num_shards,
                      std::int64_t huge_table_limit_bytes);

/** Dispatch by strategy name: one of the Table I labels. */
enum class Strategy { Singular, OneShard, CapacityBalanced, LoadBalanced,
                      Nsbp };

/** Short name used in plan labels and bench output. */
std::string strategyName(Strategy s);

} // namespace dri::core
