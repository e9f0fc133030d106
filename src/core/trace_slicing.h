/**
 * @file
 * Per-shard trace slicing: derive each sparse shard's access trace — and
 * from it a measured CachedLookupModel — from the rows the ShardingPlan
 * actually routes to it (ShardingPlan::shardOfRow, which the test
 * oracle's SplitIndicesOp pieces follow), instead of estimating
 * every shard's locality from one shared whole-model replay.
 *
 * The distinction matters exactly when sharding is skewed: a shard
 * holding the hot tables sees a more cacheable (more Zipf-concentrated)
 * access stream than a shard holding the long tail, so per-shard hit
 * rates legitimately diverge from the whole-model aggregate. Slices feed
 * ServingConfig::shard_cache_models, which already prices each shard's
 * gathers from its own model.
 *
 * Which overload: when the caller holds requests and only needs the
 * models, use the streamed buildShardCacheModels(spec, plan, requests,
 * skew, seed, options). It regenerates the access stream instead of
 * storing it, so its memory is the distinct-row sets plus the caches,
 * whatever the access count. The trace overload is for a trace that
 * already exists (read from a file, synthesized, or needed elsewhere);
 * both run the same two-pass build and give identical results.
 *
 * Both build on W = min(shards, workers) workers, `workers` = 0 meaning
 * the CPUs this process may run on (core::usableCpus()). Worker w owns
 * the shards s with s % W == w and runs the two passes over the source
 * for them alone. The streamed overload's workers each still draw every
 * random word of the stream, but sample rows only for the tables with a
 * piece on their own shards (workload::forEachAccess's table filter), so
 * the generation CPU per worker shrinks with its share of the lookups.
 * Every shard's cache sees the same accesses in the same order whatever
 * W is, so the result is field-for-field identical at every worker
 * count, and W = 1 runs on the calling thread without starting one.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/lookup_model.h"
#include "cache/tiered_sim.h"
#include "core/sharding_plan.h"
#include "model/model_spec.h"
#include "workload/access_trace.h"

namespace dri::core {

/** How each shard's slice is replayed into a lookup model. */
struct ShardCacheOptions
{
    cache::Policy policy = cache::Policy::Lru;
    cache::Admission admission = cache::Admission::None;
    /**
     * Per-shard DRAM budget as a fraction of that shard's own slice
     * universe (proportional sizing: total budget tracks total traffic).
     */
    double capacity_fraction = 0.2;
    /**
     * Fixed byte budget per shard; overrides capacity_fraction when > 0.
     * This is machine-shaped sizing — every shard host has the same DRAM
     * regardless of the traffic routed at it — and is what makes skewed
     * plans visibly diverge.
     */
    std::int64_t capacity_bytes_per_shard = 0;
    double warmup_fraction = 0.5;
    cache::TierCosts costs;
};

/** Per-shard replay outcome: the models plus the evidence behind them. */
struct ShardCacheModels
{
    /**
     * One model per sparse shard, index-aligned with shard ids — plugs
     * directly into core::ServingConfig::shard_cache_models.
     */
    std::vector<std::shared_ptr<const cache::CachedLookupModel>> models;
    /** Full replay statistics per shard. */
    std::vector<cache::CacheSimResult> results;
    /** Distinct-row byte universe of each shard's slice. */
    std::vector<std::int64_t> slice_universe_bytes;

    /** Access-weighted hit rate across all shards' post-warmup windows. */
    double aggregateHitRate() const;
};

/**
 * Route the trace by shard and replay each shard's accesses through its
 * own byte-budgeted cache, without copying any slice: one pass counts
 * each shard's accesses and distinct-row universe, a second replays.
 * Runs on `workers` shard-group workers (0: usable CPUs; see the file
 * comment), each reading the whole trace twice. For a singular plan the
 * single "shard" is the main shard's inline SLS tier. An in-model
 * (table, row) outside cache::packRowKey's domain throws
 * std::out_of_range, whichever worker meets it; negative `workers` or
 * a plan that fails validate(spec) throws std::invalid_argument.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options, int workers = 0);

/**
 * Streamed equivalent of buildShardCacheModels(spec, plan,
 * workload::recordTrace(spec, requests, popularity_skew, seed), options,
 * workers): field-for-field identical, but every worker's passes
 * regenerate the accesses with workload::forEachAccess, filtered to the
 * tables its shards hold, so no trace or slice is ever stored. Throws
 * what forEachAccess throws; requests or a skew it rejects throw
 * std::invalid_argument before any worker starts.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options, int workers = 0);

} // namespace dri::core
