/**
 * @file
 * Tests for the capacity-driven sharding strategies (the paper's core
 * mechanism, Section III-B): structural validity across all strategies and
 * shard counts, balance guarantees, NSBP net purity, huge-table row
 * splitting, and Table II's published per-shard structure.
 */
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/strategies.h"
#include "dc/platform.h"
#include "model/generators.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;
using core::ShardingPlan;

std::vector<double>
poolingFor(const model::ModelSpec &spec)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{99, 0.0});
    return gen.estimatePoolingFactors(500);
}

TEST(Singular, NoShards)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeSingular(spec);
    EXPECT_TRUE(plan.isSingular());
    EXPECT_EQ(plan.numShards(), 0);
    EXPECT_EQ(plan.label(), "singular");
    std::string err;
    EXPECT_TRUE(plan.validate(spec, &err)) << err;
}

TEST(OneShard, EverythingOnShardZero)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeOneShard(spec);
    EXPECT_EQ(plan.numShards(), 1);
    EXPECT_EQ(plan.tablesOnShard(0).size(), spec.tables.size());
    std::string err;
    EXPECT_TRUE(plan.validate(spec, &err)) << err;
}

/** Property suite: every strategy x shard count yields a valid plan. */
class StrategyValidityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(StrategyValidityTest, AllStrategiesValidForDrm1)
{
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    const int n = GetParam();
    std::string err;
    for (const auto &plan :
         {core::makeCapacityBalanced(spec, n),
          core::makeLoadBalanced(spec, n, pooling),
          core::makeNsbp(spec, n, dc::scLarge().usableModelBytes())}) {
        EXPECT_TRUE(plan.validate(spec, &err)) << plan.label() << ": " << err;
        EXPECT_EQ(plan.numShards(), n);
        // Every shard hosts at least one table (no wasted servers).
        for (int s = 0; s < n; ++s)
            EXPECT_FALSE(plan.tablesOnShard(s).empty())
                << plan.label() << " shard " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StrategyValidityTest,
                         ::testing::Values(2, 3, 4, 5, 8, 16));

TEST(CapacityBalanced, BytesNearlyEqual)
{
    const auto spec = model::makeDrm1();
    for (int n : {2, 4, 8}) {
        const auto plan = core::makeCapacityBalanced(spec, n);
        double lo = 1e300, hi = 0.0;
        for (int s = 0; s < n; ++s) {
            const double b = plan.capacityBytes(spec, s);
            lo = std::min(lo, b);
            hi = std::max(hi, b);
        }
        // LPT greedy on 257 tables: within a few percent.
        EXPECT_LT(hi / lo, 1.15) << n << " shards";
    }
}

TEST(LoadBalanced, PoolingNearlyEqualCapacityNot)
{
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    const auto plan = core::makeLoadBalanced(spec, 8, pooling);
    double plo = 1e300, phi = 0.0, clo = 1e300, chi = 0.0;
    for (int s = 0; s < 8; ++s) {
        const double p = plan.estimatedPooling(pooling, s);
        const double c = plan.capacityBytes(spec, s);
        plo = std::min(plo, p);
        phi = std::max(phi, p);
        clo = std::min(clo, c);
        chi = std::max(chi, c);
    }
    EXPECT_LT(phi / plo, 1.05);
    // The paper saw per-shard capacity vary up to ~50% under load
    // balancing; ours must at least be visibly uneven.
    EXPECT_GT(chi / clo, 1.05);
}

TEST(CapacityBalanced, PoolingImbalanceLikeTable2)
{
    // Table II: capacity-balanced at 8 shards left up to 371% pooling
    // imbalance between shards.
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    const auto plan = core::makeCapacityBalanced(spec, 8);
    double lo = 1e300, hi = 0.0;
    for (int s = 0; s < 8; ++s) {
        const double p = plan.estimatedPooling(pooling, s);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    EXPECT_GT(hi / lo, 1.5);
}

TEST(Nsbp, NeverMixesNets)
{
    const auto spec = model::makeDrm1();
    for (int n : {2, 4, 8}) {
        const auto plan =
            core::makeNsbp(spec, n, dc::scLarge().usableModelBytes());
        for (int s = 0; s < n; ++s) {
            std::set<int> nets;
            for (int t : plan.tablesOnShard(s))
                nets.insert(
                    spec.tables[static_cast<std::size_t>(t)].net_id);
            EXPECT_LE(nets.size(), 1u)
                << "shard " << s << " mixes nets at " << n << " shards";
        }
    }
}

TEST(Nsbp, TwoShardConfigIsolatesNetsLikePaper)
{
    // Table II NSBP-2: shard 1 = net 1 (33.58 GiB), shard 2 = net 2
    // (160 GiB): ~4.8x capacity, a few percent of the pooling work.
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    const auto plan =
        core::makeNsbp(spec, 2, dc::scLarge().usableModelBytes());
    const auto summaries = plan.summarize(spec, pooling);
    ASSERT_EQ(summaries.size(), 2u);

    // One shard holds net 1, the other net 2; identify by capacity.
    const auto &small = summaries[0].capacity_gib < summaries[1].capacity_gib
                            ? summaries[0]
                            : summaries[1];
    const auto &large = summaries[0].capacity_gib < summaries[1].capacity_gib
                            ? summaries[1]
                            : summaries[0];
    EXPECT_NEAR(small.capacity_gib, 33.58, 1.5);
    EXPECT_NEAR(large.capacity_gib, 160.47, 2.0);
    EXPECT_NEAR(large.capacity_gib / small.capacity_gib, 4.78, 0.4);
    // The big shard does a small fraction of the work (paper: 6.3%).
    EXPECT_LT(large.estimated_pooling / small.estimated_pooling, 0.15);
}

TEST(Nsbp, EightShardSplitsMatchPaperStructure)
{
    // Table II NSBP-8: net 1 -> 2 shards, net 2 -> 6 shards.
    const auto spec = model::makeDrm1();
    const auto plan =
        core::makeNsbp(spec, 8, dc::scLarge().usableModelBytes());
    int net1_shards = 0, net2_shards = 0;
    for (int s = 0; s < 8; ++s) {
        std::set<int> nets;
        for (int t : plan.tablesOnShard(s))
            nets.insert(spec.tables[static_cast<std::size_t>(t)].net_id);
        ASSERT_EQ(nets.size(), 1u);
        (*nets.begin() == 0 ? net1_shards : net2_shards) += 1;
    }
    EXPECT_EQ(net1_shards, 2);
    EXPECT_EQ(net2_shards, 6);
}

TEST(Nsbp, Drm3SplitsDominantTableAcrossRemainingShards)
{
    // Paper: with 4 shards, the largest table partitions across 3 and the
    // remaining tables group into 1.
    const auto spec = model::makeDrm3();
    for (int n : {4, 8}) {
        const auto plan =
            core::makeNsbp(spec, n, dc::scLarge().usableModelBytes());
        std::string err;
        ASSERT_TRUE(plan.validate(spec, &err)) << err;
        const auto &dominant = plan.assignmentFor(0);
        EXPECT_TRUE(dominant.isSplit());
        EXPECT_EQ(static_cast<int>(dominant.ways()), n - 1);
        // All small tables share one shard.
        std::set<int> small_shards;
        for (const auto &a : plan.assignments())
            if (!a.isSplit())
                small_shards.insert(a.shards[0]);
        EXPECT_EQ(small_shards.size(), 1u);
    }
}

TEST(ShardingPlan, EstimatedPoolingSplitsAcrossPieces)
{
    const auto spec = model::makeDrm3();
    const auto plan =
        core::makeNsbp(spec, 4, dc::scLarge().usableModelBytes());
    std::vector<double> pooling(spec.tables.size(), 0.0);
    pooling[0] = 1.0; // dominant table, pooling factor 1
    double total = 0.0;
    for (int s = 0; s < 4; ++s)
        total += plan.estimatedPooling(pooling, s);
    EXPECT_NEAR(total, 1.0, 1e-9); // conserved across pieces
}

TEST(ShardingPlan, ValidateCatchesDuplicates)
{
    const auto spec = model::makeDrm3();
    std::vector<core::TableAssignment> assignments;
    for (const auto &t : spec.tables)
        assignments.push_back({t.id, {0}});
    assignments.push_back({0, {1}}); // duplicate
    ShardingPlan bad("broken", 2, std::move(assignments));
    std::string err;
    EXPECT_FALSE(bad.validate(spec, &err));
    EXPECT_NE(err.find("twice"), std::string::npos);
}

TEST(ShardingPlan, ValidateCatchesMemoryOverflow)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeOneShard(spec); // 194 GiB on one shard
    std::string err;
    EXPECT_FALSE(plan.validate(spec, &err, 64LL << 30));
    EXPECT_NE(err.find("memory"), std::string::npos);
    EXPECT_TRUE(plan.validate(spec, &err, 256LL << 30));
}

TEST(ShardingPlan, AssignmentForThrowsOutOfRangeOnUnplacedTables)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    EXPECT_EQ(plan.assignmentFor(0).table_id, 0);
    EXPECT_THROW(plan.assignmentFor(-1), std::out_of_range);
    EXPECT_THROW(plan.assignmentFor(static_cast<int>(spec.tables.size())),
                 std::out_of_range);
    EXPECT_THROW(core::makeSingular(spec).assignmentFor(0),
                 std::out_of_range);
    // Table 1 unplaced: its slot holds table 2's assignment.
    const ShardingPlan gap("manual", 1, {{0, {0}}, {2, {0}}});
    EXPECT_THROW(gap.assignmentFor(1), std::out_of_range);
}

TEST(ShardingPlan, ShardOfRowContract)
{
    const auto spec = model::makeDrm1();
    const auto singular = core::makeSingular(spec);
    for (int table : {-1, 0, 3, 1000})
        EXPECT_EQ(singular.shardOfRow(table, 12345), 0);

    // Table 0 whole on shard 2; table 1 split three ways over {3, 0, 1}.
    const ShardingPlan plan("manual", 4, {{0, {2}}, {1, {3, 0, 1}}});
    EXPECT_EQ(plan.shardOfRow(2, 0), -1);
    EXPECT_EQ(plan.shardOfRow(-1, 0), -1);
    for (const std::int64_t row : {-7LL, 0LL, 5LL, 1LL << 40})
        EXPECT_EQ(plan.shardOfRow(0, row), 2);
    EXPECT_EQ(plan.shardOfRow(1, 4), 0);  // piece 1
    EXPECT_EQ(plan.shardOfRow(1, -1), 1); // -1 mod 3 = 2: piece 2
    EXPECT_EQ(plan.shardOfRow(1, -3), 3); // piece 0
    // Negative rows continue the modulus cycle instead of leaving it.
    for (std::int64_t row = -9; row < 9; ++row)
        EXPECT_EQ(plan.shardOfRow(1, row), plan.shardOfRow(1, row + 3))
            << "row " << row;
}

TEST(ShardingPlan, CapacityConservation)
{
    // Sum of per-shard capacity equals the model total for every strategy.
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    for (const auto &plan :
         {core::makeCapacityBalanced(spec, 8),
          core::makeLoadBalanced(spec, 8, pooling),
          core::makeNsbp(spec, 8, dc::scLarge().usableModelBytes())}) {
        double total = 0.0;
        for (int s = 0; s < 8; ++s)
            total += plan.capacityBytes(spec, s);
        EXPECT_NEAR(total, static_cast<double>(spec.totalCapacityBytes()),
                    1.0)
            << plan.label();
    }
}

TEST(StrategyMisuse, ShardCountBelowOneThrowsNamingTheArgument)
{
    const auto spec = model::makeDrm1();
    const auto pooling = poolingFor(spec);
    const std::int64_t limit = dc::scLarge().usableModelBytes();
    for (const int n : {0, -3}) {
        EXPECT_THROW(core::makeCapacityBalanced(spec, n),
                     std::invalid_argument);
        EXPECT_THROW(core::makeLoadBalanced(spec, n, pooling),
                     std::invalid_argument);
        EXPECT_THROW(core::makeNsbp(spec, n, limit), std::invalid_argument);
    }
    try {
        core::makeNsbp(spec, 0, limit);
        FAIL() << "makeNsbp accepted num_shards 0";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("num_shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(StrategyMisuse, PoolingEstimatesMustCoverEveryTable)
{
    const auto spec = model::makeDrm1();
    auto pooling = poolingFor(spec);
    pooling.pop_back();
    try {
        core::makeLoadBalanced(spec, 4, pooling);
        FAIL() << "makeLoadBalanced accepted a short estimate vector";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("pooling_estimates"),
                  std::string::npos)
            << e.what();
    }
    pooling.resize(spec.tables.size() + 5, 1.0);
    EXPECT_THROW(core::makeLoadBalanced(spec, 4, pooling),
                 std::invalid_argument);
}

TEST(StrategyMisuse, NsbpShardCountsItCannotPlaceThrow)
{
    // DRM1's two nets never share a bin, so one shard cannot hold them.
    EXPECT_THROW(core::makeNsbp(model::makeDrm1(), 1, 0),
                 std::invalid_argument);

    // Ten equal single-net tables fill at most ten shards.
    model::ModelSpec spec;
    spec.name = "ten";
    spec.nets.push_back({0, "net0", 1.0, 0.0});
    for (int i = 0; i < 10; ++i) {
        model::TableSpec t;
        t.id = i;
        t.name = "t" + std::to_string(i);
        t.rows = 1000;
        spec.tables.push_back(t);
    }
    EXPECT_EQ(core::makeNsbp(spec, 10, 0).numShards(), 10);
    EXPECT_THROW(core::makeNsbp(spec, 11, 0), std::invalid_argument);
}

TEST(StrategyNames, Labels)
{
    EXPECT_EQ(core::strategyName(core::Strategy::Nsbp), "NSBP");
    const auto spec = model::makeDrm3();
    const auto plan =
        core::makeNsbp(spec, 4, dc::scLarge().usableModelBytes());
    EXPECT_EQ(plan.label(), "NSBP 4 shards");
}

} // namespace
