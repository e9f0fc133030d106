/**
 * @file
 * Per-shard trace slicing tests: routing correctness (whole and
 * row-split tables), conservation, the build's equality with a
 * per-slice reference at every worker count, errors raised on helper
 * workers, and the headline acceptance properties — per-shard sliced
 * CachedLookupModels reproduce the whole-model aggregate hit rate within
 * 2% under uniform sharding, and diverge measurably under skewed
 * sharding with machine-shaped (equal bytes per shard) cache budgets.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "model/generators.h"
#include "workload/access_trace.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/**
 * Split a whole-model trace into one slice per sparse shard by
 * ShardingPlan::shardOfRow(), dropping records that name tables outside
 * the plan (as TieredCacheSim::replay does); a singular plan yields one slice
 * holding every record. The materialized routing the reference build
 * below replays.
 */
std::vector<workload::AccessTrace>
sliceTraceByShard(const core::ShardingPlan &plan,
                  const workload::AccessTrace &trace)
{
    std::vector<workload::AccessTrace> slices(
        plan.isSingular() ? 1 : static_cast<std::size_t>(plan.numShards()));
    for (const auto &rec : trace.records()) {
        const int shard = plan.shardOfRow(rec.table_id, rec.row);
        if (shard >= 0)
            slices[static_cast<std::size_t>(shard)].add(rec);
    }
    return slices;
}

workload::AccessTrace
studyTrace(const model::ModelSpec &spec, std::uint64_t seed = 17,
           double skew = 0.7)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{seed});
    return workload::recordTrace(spec, gen.generate(500), skew, seed);
}

TEST(TraceSlicing, RoutesWholeTablesAndConservesRecords)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto trace = studyTrace(spec);
    const auto plan = core::makeCapacityBalanced(spec, 4);

    const auto slices = sliceTraceByShard(plan, trace);
    ASSERT_EQ(slices.size(), 4u);

    std::size_t total = 0;
    for (int s = 0; s < 4; ++s) {
        total += slices[static_cast<std::size_t>(s)].size();
        for (const auto &rec :
             slices[static_cast<std::size_t>(s)].records()) {
            const auto &asg = plan.assignmentFor(rec.table_id);
            ASSERT_FALSE(asg.isSplit());
            EXPECT_EQ(asg.shards[0], s);
        }
    }
    // Every in-plan record lands in exactly one slice.
    EXPECT_EQ(total, trace.size());
}

TEST(TraceSlicing, SplitTablesRouteByRowModulus)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto trace = studyTrace(spec);
    // Hand-build a plan: table 0 split 2 ways across shards {0, 1}, the
    // rest all on shard 1.
    std::vector<core::TableAssignment> asg;
    for (int t = 0; t < 8; ++t) {
        core::TableAssignment a;
        a.table_id = t;
        a.shards = t == 0 ? std::vector<int>{0, 1} : std::vector<int>{1};
        asg.push_back(a);
    }
    const core::ShardingPlan plan("manual-split", 2, asg);

    const auto slices = sliceTraceByShard(plan, trace);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_GT(slices[0].size(), 0u);
    for (const auto &rec : slices[0].records()) {
        EXPECT_EQ(rec.table_id, 0);
        EXPECT_EQ(rec.row % 2, 0); // piece 0 holds even rows
    }
    for (const auto &rec : slices[1].records()) {
        if (rec.table_id == 0) {
            EXPECT_EQ(rec.row % 2, 1);
        }
    }
    EXPECT_EQ(slices[0].size() + slices[1].size(), trace.size());
}

TEST(TraceSlicing, SingularPlanYieldsOneFullSlice)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto trace = studyTrace(spec);
    const auto plan = core::makeSingular(spec);
    const auto slices = sliceTraceByShard(plan, trace);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].size(), trace.size());
}

/**
 * The per-slice algorithm the two-pass build replaced, kept as the
 * reference: materialize each shard's slice, size its budget from the
 * slice's own footprint, and replay it through a fresh cache.
 */
core::ShardCacheModels
perSliceReference(const model::ModelSpec &spec, const core::ShardingPlan &plan,
                  const workload::AccessTrace &trace,
                  const core::ShardCacheOptions &options)
{
    core::ShardCacheModels out;
    for (const auto &slice : sliceTraceByShard(plan, trace)) {
        const std::int64_t universe =
            workload::traceFootprint(spec, slice).universe_bytes;
        cache::TieredCacheConfig cfg;
        cfg.policy = options.policy;
        cfg.capacity_bytes = options.capacity_bytes_per_shard > 0
                                 ? options.capacity_bytes_per_shard
                                 : static_cast<std::int64_t>(std::llround(
                                       options.capacity_fraction *
                                       static_cast<double>(universe)));
        cfg.warmup_fraction = options.warmup_fraction;
        cfg.admission = options.admission;
        cache::TieredCacheSim sim(spec, cfg);
        out.results.push_back(sim.replay(slice));
        out.slice_universe_bytes.push_back(universe);
    }
    return out;
}

void
expectSameStats(const cache::CacheStats &a, const cache::CacheStats &b,
                const std::string &where)
{
    EXPECT_EQ(a.accesses, b.accesses) << where;
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.admission_rejects, b.admission_rejects) << where;
}

void
expectSameResults(const core::ShardCacheModels &a,
                  const core::ShardCacheModels &b, const std::string &where)
{
    EXPECT_EQ(a.slice_universe_bytes, b.slice_universe_bytes) << where;
    ASSERT_EQ(a.results.size(), b.results.size()) << where;
    for (std::size_t s = 0; s < a.results.size(); ++s) {
        const std::string at = where + " shard " + std::to_string(s);
        expectSameStats(a.results[s].total, b.results[s].total, at);
        ASSERT_EQ(a.results[s].per_table.size(),
                  b.results[s].per_table.size())
            << at;
        for (std::size_t t = 0; t < a.results[s].per_table.size(); ++t)
            expectSameStats(a.results[s].per_table[t],
                            b.results[s].per_table[t],
                            at + " table " + std::to_string(t));
    }
}

/**
 * The streamed build equals the trace overload field for field, and
 * both equal the per-slice reference, on singular, whole-table and
 * split-table plans under proportional and fixed budgets, at 1, 2, 3, 4
 * and 8 workers (8 is more than any plan's shard count, so it is
 * clamped). At 3 or more workers the manual plan's split table 0
 * (shards 0 and 2) is wanted by two workers' table masks.
 */
TEST(TraceSlicing, StreamedBuildEqualsTraceOverloadAndPerSliceReference)
{
    const auto spec = model::makeShardedCacheStudySpec();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{17});
    const auto requests = gen.generate(200);
    const auto trace = workload::recordTrace(spec, requests, 0.7, 17);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;

    std::vector<core::TableAssignment> split;
    for (int t = 0; t < 8; ++t) {
        core::TableAssignment a;
        a.table_id = t;
        a.shards = t == 0 ? std::vector<int>{0, 2} : std::vector<int>{t % 3};
        split.push_back(a);
    }
    const std::vector<core::ShardingPlan> plans = {
        core::makeSingular(spec), core::makeCapacityBalanced(spec, 4),
        core::ShardingPlan("manual-split", 3, split)};

    core::ShardCacheOptions by_fraction;
    by_fraction.capacity_fraction = 0.3;
    core::ShardCacheOptions by_bytes;
    by_bytes.capacity_bytes_per_shard =
        static_cast<std::int64_t>(0.05 * static_cast<double>(universe));
    core::ShardCacheOptions arc_tinylfu = by_fraction;
    arc_tinylfu.policy = cache::Policy::Arc;
    arc_tinylfu.admission = cache::Admission::TinyLfu;

    for (const auto &plan : plans)
        for (const auto &opt : {by_fraction, by_bytes, arc_tinylfu}) {
            const std::string config =
                plan.strategy() + "/" + cache::policyName(opt.policy) +
                (opt.capacity_bytes_per_shard > 0 ? "/bytes" : "/fraction");
            const auto reference = perSliceReference(spec, plan, trace, opt);
            for (const int workers : {1, 2, 3, 4, 8}) {
                const std::string where =
                    config + "/workers=" + std::to_string(workers);
                const auto streamed = core::buildShardCacheModels(
                    spec, plan, requests, 0.7, 17, opt, workers);
                const auto traced = core::buildShardCacheModels(
                    spec, plan, trace, opt, workers);
                expectSameResults(streamed, traced, where);
                expectSameResults(streamed, reference,
                                  where + " vs reference");

                ASSERT_EQ(streamed.models.size(), traced.models.size());
                for (std::size_t s = 0; s < streamed.models.size(); ++s)
                    for (int t = 0; t < 8; ++t) {
                        EXPECT_EQ(streamed.models[s]->hasTable(t),
                                  traced.models[s]->hasTable(t));
                        EXPECT_EQ(streamed.models[s]->hitRate(t),
                                  traced.models[s]->hitRate(t))
                            << where << " shard " << s << " table " << t;
                    }
                EXPECT_GT(streamed.aggregateHitRate(), 0.0) << where;
            }
        }
}

/**
 * The fleet study's own build (DRM2, capacity-balanced over 4 shards,
 * skew 0.8, seed 0x7ace): the streamed build, whose workers generate
 * only their own shards' tables, equals the trace overload at 1 and 4
 * workers.
 */
TEST(TraceSlicing, FleetStudyStreamedBuildEqualsTraceOverload)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{0x7ace});
    const auto requests = gen.generate(20);
    const auto trace = workload::recordTrace(spec, requests, 0.8, 0x7ace);
    core::ShardCacheOptions opt;
    opt.capacity_fraction = 0.4;
    opt.costs.miss_ns = 300.0;
    for (const int workers : {1, 4}) {
        const std::string where = "workers=" + std::to_string(workers);
        const auto streamed = core::buildShardCacheModels(
            spec, plan, requests, 0.8, 0x7ace, opt, workers);
        const auto traced =
            core::buildShardCacheModels(spec, plan, trace, opt, workers);
        expectSameResults(streamed, traced, where);
        EXPECT_GT(streamed.aggregateHitRate(), 0.0) << where;
    }
}

/**
 * Requests the access generator rejects fail on the calling thread, as
 * std::invalid_argument, at any worker count; so does a negative one.
 */
TEST(TraceSlicing, BadRequestsAndWorkerCountsThrowInvalidArgument)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{17});
    auto requests = gen.generate(20);
    const core::ShardCacheOptions opt;

    EXPECT_THROW(core::buildShardCacheModels(spec, plan, requests, 0.7, 17,
                                             opt, -1),
                 std::invalid_argument);
    requests[7].table_lookups.pop_back();
    for (const int workers : {0, 1, 2, 8})
        EXPECT_THROW(core::buildShardCacheModels(spec, plan, requests, 0.7,
                                                 17, opt, workers),
                     std::invalid_argument)
            << "workers=" << workers;
}

/**
 * A NaN popularity skew fails on the calling thread, as
 * std::invalid_argument, before any worker starts.
 */
TEST(TraceSlicing, NaNSkewThrowsInvalidArgument)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{17});
    const auto requests = gen.generate(20);
    const core::ShardCacheOptions opt;
    for (const int workers : {1, 4})
        EXPECT_THROW(core::buildShardCacheModels(spec, plan, requests,
                                                 std::nan(""), 17, opt,
                                                 workers),
                     std::invalid_argument)
            << "workers=" << workers;
}

/**
 * Both overloads validate the plan before routing by it: one that misses
 * tables throws std::invalid_argument naming the validator's finding.
 */
TEST(TraceSlicing, InvalidPlanThrowsInvalidArgument)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const core::ShardingPlan partial("manual", 2, {{0, {0}}, {1, {1}}});
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{17});
    const auto requests = gen.generate(20);
    const auto trace = studyTrace(spec);
    const core::ShardCacheOptions opt;
    const auto expectPlanError = [](auto &&build) {
        try {
            build();
            ADD_FAILURE() << "no throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("sharding plan: "),
                      std::string::npos)
                << e.what();
        }
    };
    expectPlanError([&] {
        core::buildShardCacheModels(spec, partial, trace, opt, 1);
    });
    expectPlanError([&] {
        core::buildShardCacheModels(spec, partial, requests, 0.7, 17, opt,
                                    1);
    });
}

/**
 * A row outside cache::packRowKey's domain, in a table the model
 * defines, throws std::out_of_range at the caller, also when the worker
 * that meets it is not the calling thread.
 */
TEST(TraceSlicing, OutOfDomainRowOnAHelperWorkerReachesTheCaller)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    // A table on shard 3: at 2 or 4 workers a helper thread owns it.
    int table = -1;
    for (int t = 0; t < 8 && table < 0; ++t)
        if (plan.assignmentFor(t).shards[0] == 3)
            table = t;
    ASSERT_GE(table, 0);

    auto trace = studyTrace(spec);
    trace.add(workload::AccessRecord{0, table, std::int64_t{1} << 48});
    const core::ShardCacheOptions opt;
    for (const int workers : {1, 2, 4})
        EXPECT_THROW(core::buildShardCacheModels(spec, plan, trace, opt,
                                                 workers),
                     std::out_of_range)
            << "workers=" << workers;
}

/**
 * Acceptance: under uniform sharding (equal tables, capacity-balanced
 * plan) with proportionally sized shard caches, the access-weighted
 * aggregate of the per-shard hit rates reproduces the whole-model
 * replay's hit rate within 2% absolute — slicing does not distort the
 * aggregate picture when there is no skew to expose.
 */
TEST(TraceSlicing, UniformShardingReproducesAggregateWithin2Pct)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto trace = studyTrace(spec);
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;

    for (const double f : {0.1, 0.2, 0.4}) {
        const double whole =
            cache::replayTrace(spec, trace, cache::Policy::Lru,
                               static_cast<std::int64_t>(
                                   f * static_cast<double>(universe)))
                .overallHitRate();

        core::ShardCacheOptions opt;
        opt.capacity_fraction = f;
        const auto sliced =
            core::buildShardCacheModels(spec, plan, trace, opt);
        ASSERT_EQ(sliced.models.size(), 4u);
        EXPECT_NEAR(sliced.aggregateHitRate(), whole, 0.02) << "f=" << f;
        // And each individual shard sits close to the aggregate too —
        // uniform sharding means no shard is special.
        for (const auto &r : sliced.results)
            EXPECT_NEAR(r.total.hitRate(), whole, 0.05) << "f=" << f;
    }
}

/**
 * Acceptance: under skewed sharding with machine-shaped budgets (every
 * shard host has the same DRAM), per-shard hit rates diverge measurably
 * — the whole-model estimate would price both shards identically and be
 * wrong on both. This is the case per-shard slicing exists for.
 */
TEST(TraceSlicing, SkewedShardingDivergesUnderEqualShardBudgets)
{
    const auto spec = model::makeShardedCacheStudySpec();
    const auto trace = studyTrace(spec);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;

    // Skewed plan: shard 0 holds one table, shard 1 holds seven.
    std::vector<core::TableAssignment> asg;
    for (int t = 0; t < 8; ++t) {
        core::TableAssignment a;
        a.table_id = t;
        a.shards = {t == 0 ? 0 : 1};
        asg.push_back(a);
    }
    const core::ShardingPlan plan("manual-skew", 2, asg);

    core::ShardCacheOptions opt;
    // Total budget 20% of the universe, split evenly per machine.
    opt.capacity_bytes_per_shard = static_cast<std::int64_t>(
        0.1 * static_cast<double>(universe));
    const auto sliced = core::buildShardCacheModels(spec, plan, trace, opt);
    ASSERT_EQ(sliced.models.size(), 2u);

    const double h0 = sliced.results[0].total.hitRate();
    const double h1 = sliced.results[1].total.hitRate();
    // Shard 0's budget covers most of its small slice; shard 1's covers
    // a sliver of its large one.
    EXPECT_GT(h0, h1 + 0.10)
        << "h0=" << h0 << " h1=" << h1;
    // The whole-model estimate matches neither shard within 2% — the
    // shared model is wrong exactly where slicing is right.
    const double whole =
        cache::replayTrace(spec, trace, cache::Policy::Lru,
                           2 * opt.capacity_bytes_per_shard)
            .overallHitRate();
    EXPECT_GT(std::abs(whole - h0), 0.02);
    EXPECT_GT(std::abs(whole - h1), 0.02);

    // The models feed ServingConfig::shard_cache_models: spot-check the
    // per-table pricing diverges the same way.
    EXPECT_TRUE(sliced.models[0]->hasTable(0));
    EXPECT_TRUE(sliced.models[1]->hasTable(1));
    EXPECT_FALSE(sliced.models[0]->hasTable(1));
}

} // namespace
