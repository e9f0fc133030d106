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
 * storing it, so its memory is a rank histogram plus the caches,
 * whatever the access count. The trace overload is for a trace that
 * already exists (read from a file, synthesized, or needed elsewhere).
 * Both run a counting pass and then a replay pass, and give identical
 * results.
 *
 * Both build on W = min(shards, workers) workers, `workers` = 0 meaning
 * the CPUs this process may run on (core::usableCpus()). Worker w owns
 * the shards s with s % W == w and runs the two passes over the source
 * for them alone. The streamed overload's workers draw only the lookups
 * of the tables with a piece on their own shards (workload::forEachRank's
 * table filter); every other lookup's engine word is skipped by
 * stats::Rng::discard, one generator block per twist, so the generation
 * CPU per worker shrinks with its share of the lookups. Its first pass
 * counts ranks, not rows: a uint32_t counter per (wanted table, Zipf
 * rank), folded afterwards into each shard's access count, distinct-row
 * bytes and distinct rows. The fold numbers each shard's distinct rows
 * 0..R-1 and keeps each (wanted table, rank)'s owning shard and
 * cache::RowRef in 12 bytes. Each shard's cache is then sized once, for
 * exactly its R numbered rows (cache::EmbeddingCache::reserve), and the
 * second pass replays every draw as the RowRef the fold gave it: one
 * table lookup per access, with no row mapping, routing or hashing. The
 * trace overload gives each owned shard one cache::RowNumbering. Its
 * pass 1 routes each record to its shard first, so a worker hashes only
 * the records its own shards serve, numbers them, and keeps each one's
 * number, 4 bytes per record in stream order (the trace itself holds
 * 24). Pass 2 replays those numbers with no hash probe. Every shard's
 * cache sees the same accesses in the same order whatever W is, so the
 * result is field-for-field identical at every worker count, and W = 1
 * runs on the calling thread without starting one.
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
     * Must be finite and >= 0.
     */
    double capacity_fraction = 0.2;
    /**
     * Fixed byte budget per shard; overrides capacity_fraction when > 0.
     * This is machine-shaped sizing — every shard host has the same DRAM
     * regardless of the traffic routed at it — and is what makes skewed
     * plans visibly diverge. Must be >= 0.
     */
    std::int64_t capacity_bytes_per_shard = 0;
    /**
     * TieredCacheConfig::warmup_fraction of every shard's replay: finite
     * values outside [0, 1] clamp to it; must not be NaN.
     */
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
 * each shard's accesses and numbers its distinct rows, a second replays.
 * Runs on `workers` shard-group workers (0: usable CPUs; see the file
 * comment), each reading the whole trace twice. For a singular plan the
 * single "shard" is the main shard's inline SLS tier. An in-model
 * (table, row) outside cache::packRowKey's domain throws
 * std::out_of_range, whichever worker meets it. Negative `workers`, a
 * plan that fails validate(spec) or has 65,535 or more shards, or
 * options breaking ShardCacheOptions' rules (a non-finite or negative
 * capacity_fraction, a negative capacity_bytes_per_shard, a NaN
 * warmup_fraction) throw std::invalid_argument on the calling thread,
 * before any worker starts.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const workload::AccessTrace &trace,
                      const ShardCacheOptions &options, int workers = 0);

/**
 * Streamed equivalent of buildShardCacheModels(spec, plan,
 * workload::recordTrace(spec, requests, popularity_skew, seed), options,
 * workers): field-for-field identical, but every worker's passes
 * regenerate the draws with workload::forEachRank, filtered to the
 * tables its shards hold, so no trace or slice is ever stored. Throws
 * what the trace overload and forEachRank throw; requests or a skew
 * forEachRank rejects throw std::invalid_argument before any worker
 * starts, and a table with 2^32 or more lookups across `requests` (past
 * a rank counter) throws std::length_error there too.
 */
ShardCacheModels
buildShardCacheModels(const model::ModelSpec &spec, const ShardingPlan &plan,
                      const std::vector<workload::Request> &requests,
                      double popularity_skew, std::uint64_t seed,
                      const ShardCacheOptions &options, int workers = 0);

} // namespace dri::core
