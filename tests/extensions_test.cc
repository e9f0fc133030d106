/**
 * @file
 * Tests for the future-work extensions (Section X): automatic sharding,
 * the paging-from-disk alternative, sparse-shard replication, and SLA
 * accounting. Chrome trace export is tested in obs_test.
 */
#include <gtest/gtest.h>

#include "core/auto_shard.h"
#include "dc/paging.h"
#include "model/generators.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

TEST(AutoShard, FindsFeasiblePlanForDrm1)
{
    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{3, 0.0});
    const auto requests = gen.generate(120);
    const auto pooling = gen.estimatePoolingFactors(300);

    core::AutoShardConstraints constraints;
    constraints.shard_memory_limit_bytes = dc::scSmall().usableModelBytes();
    constraints.max_compute_overhead = 0.30;
    constraints.max_shards = 8;

    const auto result = core::autoShard(spec, requests, pooling, constraints,
                                        core::ServingConfig{});
    ASSERT_TRUE(result.found);
    // 194 GiB over <= 51 GiB shards requires at least 4 shards.
    EXPECT_GE(result.best.numShards(), 4);
    EXPECT_TRUE(result.best_score.memory_feasible);
    EXPECT_TRUE(result.best_score.meets_compute_budget);
    std::string err;
    EXPECT_TRUE(result.best.validate(spec, &err,
                                     constraints.shard_memory_limit_bytes))
        << err;
    // The 1-shard candidate must have been rejected on memory.
    bool saw_infeasible_one_shard = false;
    for (const auto &c : result.considered)
        if (c.plan.numShards() == 1)
            saw_infeasible_one_shard = !c.memory_feasible;
    EXPECT_TRUE(saw_infeasible_one_shard);
}

TEST(AutoShard, ImpossibleBudgetFallsBackToLeastCompute)
{
    // When no feasible plan meets the compute budget, the search falls
    // back to the memory-feasible plan with the least compute overhead.
    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{5, 0.0});
    const auto requests = gen.generate(100);
    const auto pooling = gen.estimatePoolingFactors(300);

    core::AutoShardConstraints constraints;
    constraints.shard_memory_limit_bytes = dc::scSmall().usableModelBytes();
    constraints.max_compute_overhead = 0.001; // unattainable
    constraints.max_shards = 8;
    const auto result = core::autoShard(spec, requests, pooling, constraints,
                                        core::ServingConfig{});
    ASSERT_TRUE(result.found);
    EXPECT_FALSE(result.best_score.meets_compute_budget);
    for (const auto &c : result.considered) {
        if (!c.memory_feasible)
            continue;
        EXPECT_LE(result.best_score.overhead.compute_overhead[0],
                  c.overhead.compute_overhead[0] + 1e-9)
            << c.plan.label();
    }
}

TEST(AutoShard, HugeTableModelRestrictedToNsbp)
{
    const auto spec = model::makeDrm3();
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{7, 0.0});
    const auto requests = gen.generate(80);
    const auto pooling = gen.estimatePoolingFactors(200);

    core::AutoShardConstraints constraints;
    constraints.shard_memory_limit_bytes = dc::scLarge().usableModelBytes();
    constraints.max_shards = 8;
    const auto result = core::autoShard(spec, requests, pooling, constraints,
                                        core::ServingConfig{});
    ASSERT_TRUE(result.found);
    for (const auto &c : result.considered) {
        if (c.plan.numShards() >= 2) {
            EXPECT_EQ(c.plan.strategy(), "NSBP") << c.plan.label();
        }
    }
}

TEST(Paging, ResidentFractionAndHitRate)
{
    const auto platform = dc::scLarge(); // ~204.8 GB usable
    const std::int64_t model_bytes = 400LL * 1000 * 1000 * 1000;
    // usable = 0.8 * 256 GiB = ~219.9e9 B; resident = 219.9/400 = 0.55.
    const double f = dc::residentFraction(model_bytes, platform);
    EXPECT_NEAR(f, 0.55, 0.01);
    // Skewed accesses capture more than the resident fraction.
    EXPECT_GT(dc::hitRate(f, 0.6), f);
    EXPECT_DOUBLE_EQ(dc::hitRate(1.0, 0.6), 1.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(0.0, 0.6), 0.0);
    // Uniform accesses: hit rate equals the resident fraction.
    EXPECT_NEAR(dc::hitRate(0.3, 0.0), 0.3, 1e-12);
}

TEST(Paging, LookupCostInterpolatesDramToSsd)
{
    const auto platform = dc::scLarge();
    dc::PagingConfig config;
    // Fully resident: pure DRAM cost.
    EXPECT_NEAR(dc::pagedLookupNs(1LL << 30, platform, config),
                config.dram_lookup_ns, 1e-9);
    // 10x over DRAM: cost dominated by SSD misses but far below pure SSD.
    const double paged =
        dc::pagedLookupNs(2048LL << 30, platform, config);
    EXPECT_GT(paged, 10 * config.dram_lookup_ns);
    EXPECT_LT(paged, dc::kSsdLookupNs);
    // Monotone in model size.
    EXPECT_LT(dc::pagedLookupNs(256LL << 30, platform, config), paged);
}

TEST(Replication, ReplicasReduceQueueingAtHighQps)
{
    const auto spec = model::makeDrm1();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{11, 0.0});
    const auto requests = gen.generate(250);
    const auto pooling = gen.estimatePoolingFactors(200);
    const auto plan = core::makeLoadBalanced(spec, 2, pooling);

    core::ServingConfig one;
    one.sparse_replicas = 1;
    core::ServingConfig three;
    three.sparse_replicas = 3;

    core::ServingSimulation sim1(spec, plan, one);
    const auto s1 = sim1.replayOpenLoop(requests, 250.0);
    core::ServingSimulation sim3(spec, plan, three);
    const auto s3 = sim3.replayOpenLoop(requests, 250.0);

    // Replicas absorb sparse-shard queueing; remote queue time shrinks.
    double q1 = 0.0, q3 = 0.0;
    for (const auto &s : s1)
        q1 += static_cast<double>(s.emb_queue);
    for (const auto &s : s3)
        q3 += static_cast<double>(s.emb_queue);
    EXPECT_LE(q3, q1);
}

TEST(Replication, SerialResultsUnaffectedByReplicas)
{
    const auto spec = model::makeDrm2();
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{13, 0.0});
    const auto requests = gen.generate(30);
    const auto pooling = gen.estimatePoolingFactors(200);
    const auto plan = core::makeLoadBalanced(spec, 2, pooling);

    core::ServingConfig one;
    core::ServingConfig four;
    four.sparse_replicas = 4;
    core::ServingSimulation sim1(spec, plan, one);
    core::ServingSimulation sim4(spec, plan, four);
    const auto a = sim1.replaySerial(requests);
    const auto b = sim4.replaySerial(requests);
    // Serial traffic never queues on sparse shards, so quantiles match to
    // within jitter reuse (identical seeds -> identical draws).
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].e2e, b[i].e2e);
}

TEST(Sla, ViolationRate)
{
    std::vector<core::RequestStats> stats;
    for (int i = 1; i <= 10; ++i) {
        core::RequestStats s;
        s.e2e = sim::fromMillis(static_cast<double>(i));
        stats.push_back(s);
    }
    EXPECT_DOUBLE_EQ(core::slaViolationRate(stats, 5.0), 0.5);
    EXPECT_DOUBLE_EQ(core::slaViolationRate(stats, 100.0), 0.0);
    EXPECT_DOUBLE_EQ(core::slaViolationRate(stats, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(core::slaViolationRate({}, 1.0), 0.0);
}

} // namespace
