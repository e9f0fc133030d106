/**
 * @file
 * Tests for compression (Table III semantics) and the data-center module
 * (platforms, capacity feasibility, replication provisioning).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "compress/compression.h"
#include "dc/paging.h"
#include "dc/platform.h"
#include "dc/replication.h"
#include "model/generators.h"

namespace {

using namespace dri;

TEST(Paging, HitRateClampsResidentFraction)
{
    // Out-of-range resident fractions (e.g. from a rounding-error caller)
    // must clamp instead of tripping UB or exceeding [0, 1].
    EXPECT_DOUBLE_EQ(dc::hitRate(-0.25, 0.6), 0.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(1.5, 0.6), 1.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(0.0, 0.6), 0.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(1.0, 0.6), 1.0);
}

TEST(Paging, HitRateHandlesSkewApproachingOne)
{
    // Regression: skew == 1 used to violate the [0, 1) contract; the
    // continuous limit of f^(1-s) as s -> 1 is 1 for any f > 0.
    EXPECT_DOUBLE_EQ(dc::hitRate(0.3, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(0.3, 1.5), 1.0);
    EXPECT_DOUBLE_EQ(dc::hitRate(0.0, 1.0), 0.0);
    // Approaching the limit from below stays finite and monotone in skew.
    double prev = 0.0;
    for (const double s : {0.9, 0.99, 0.999, 0.9999}) {
        const double h = dc::hitRate(0.3, s);
        EXPECT_TRUE(std::isfinite(h));
        EXPECT_GE(h, prev);
        EXPECT_LE(h, 1.0);
        prev = h;
    }
    // Negative skew degrades gracefully to uniform (hit rate == fraction).
    EXPECT_DOUBLE_EQ(dc::hitRate(0.3, -2.0), 0.3);
}

TEST(Paging, PagedLookupFiniteAcrossConfigSpace)
{
    const auto platform = dc::scLarge();
    for (const double skew : {0.0, 0.5, 0.99, 1.0, 2.0}) {
        dc::PagingConfig config;
        config.access_skew = skew;
        const double ns = dc::pagedLookupNs(
            4 * platform.usableModelBytes(), platform, config);
        EXPECT_TRUE(std::isfinite(ns));
        EXPECT_GE(ns, config.dram_lookup_ns);
        EXPECT_LE(ns, dc::kSsdLookupNs);
    }
}

TEST(Compression, Drm1RatioNearPaper)
{
    // Table III: 194.46 GB -> 35 GB, 5.56x.
    auto spec = model::makeDrm1();
    const auto report =
        compress::compressSpec(spec, compress::CompressionPolicy{});
    EXPECT_NEAR(report.ratio(), 5.56, 0.6);
    EXPECT_GT(report.tables_int4, 0u);
    EXPECT_GT(report.tables_int8, 0u);
    // The evaluated DRM1 is scaled down to fit one 256 GB server; the
    // production original is "many times larger" (Section V-A) — terabyte
    // scale (Fig. 1). At 10x, the compressed model still exceeds four
    // commodity servers with ~50 GB usable DRAM — the paper's conclusion
    // that compression alone cannot serve these models.
    const std::int64_t production_compressed = report.compressed_bytes * 10;
    EXPECT_GT(production_compressed,
              4 * dc::scSmall().usableModelBytes());
}

TEST(Compression, SpecFieldsUpdatedInPlace)
{
    auto spec = model::makeDrm1();
    compress::compressSpec(spec, compress::CompressionPolicy{});
    for (const auto &t : spec.tables) {
        EXPECT_NE(t.precision, model::Precision::Fp32);
        EXPECT_GE(t.prune_fraction, 0.0);
    }
    std::string err;
    EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(Compression, LargeTablesGetInt4)
{
    auto spec = model::makeDrm3();
    compress::CompressionPolicy policy;
    compress::compressSpec(spec, policy);
    // The 178.8 GB dominant table must be int4 + pruned.
    EXPECT_EQ(spec.tables[0].precision, model::Precision::Int4);
    EXPECT_DOUBLE_EQ(spec.tables[0].prune_fraction,
                     policy.large_table_prune_fraction);
}

TEST(Compression, IdempotentAccounting)
{
    auto spec = model::makeDrm2();
    const auto r1 =
        compress::compressSpec(spec, compress::CompressionPolicy{});
    const auto r2 =
        compress::compressSpec(spec, compress::CompressionPolicy{});
    // Uncompressed accounting is based on raw geometry, so both passes
    // report the same totals.
    EXPECT_EQ(r1.uncompressed_bytes, r2.uncompressed_bytes);
    EXPECT_EQ(r1.compressed_bytes, r2.compressed_bytes);
}

TEST(Platform, SkuAttributes)
{
    const auto large = dc::scLarge();
    const auto small = dc::scSmall();
    EXPECT_EQ(large.cores, 40);  // 2 x 20
    EXPECT_EQ(small.cores, 36);  // 2 x 18
    EXPECT_EQ(large.dram_bytes, 4 * small.dram_bytes); // 256 vs 64 GB
    EXPECT_GT(small.cpu_time_scale, large.cpu_time_scale); // slower clocks
    EXPECT_GT(large.nic_bandwidth_bytes_per_ns,
              small.nic_bandwidth_bytes_per_ns);
    EXPECT_LT(small.busy_watts, large.busy_watts);
}

TEST(Capacity, Drm1DoesNotFitAnywhereUncompressed)
{
    // The motivating fact: the model exceeds even SC-Large's usable DRAM
    // before scale-down, hence distributed serving.
    const auto spec = model::makeDrm1();
    dc::ShardDemand whole{"drm1", 1.0, spec.totalCapacityBytes()};
    EXPECT_FALSE(dc::fits(whole, dc::scSmall()));
    EXPECT_TRUE(dc::fits(whole, dc::scLarge())); // 194 GiB vs 204 GiB usable
    dc::ShardDemand shard{"shard", 1.0, spec.totalCapacityBytes() / 8};
    EXPECT_TRUE(dc::fits(shard, dc::scSmall()));
}

TEST(Replication, ReplicasScaleWithQps)
{
    dc::ShardDemand d{"main", 40.0, 1LL << 30}; // 40 ms CPU/request
    const auto platform = dc::scLarge();
    const auto low = dc::provision({d}, platform, 100.0, 0.5);
    const auto high = dc::provision({d}, platform, 10000.0, 0.5);
    EXPECT_EQ(low.shards.size(), 1u);
    EXPECT_GT(high.shards[0].replicas, low.shards[0].replicas);
    // 10000 QPS x 0.04 s = 400 cores; 20 usable per replica -> 20 replicas.
    EXPECT_EQ(high.shards[0].replicas, 20);
    EXPECT_EQ(high.totalMemoryBytes(),
              static_cast<std::int64_t>(20) * (1LL << 30));
}

TEST(Replication, UtilizationBounded)
{
    dc::ShardDemand d{"x", 10.0, 1};
    const auto plan = dc::provision({d}, dc::scLarge(), 777.0, 0.6);
    EXPECT_LE(plan.shards[0].cpu_utilization, 0.6 + 1e-9);
    EXPECT_GT(plan.shards[0].cpu_utilization, 0.0);
    EXPECT_GT(plan.totalPowerWatts(), 0.0);
}

TEST(Replication, DistributedSavesMemoryAtHighQps)
{
    // Section VII-C: replicating the singular model re-replicates all
    // embedding tables; distributed replicates only the dense main shard.
    const auto spec = model::makeDrm1();
    const double total = static_cast<double>(spec.totalCapacityBytes());
    const auto platform = dc::scLarge();
    const double qps = 2000.0;

    dc::ShardDemand singular{"singular", 30.0,
                             static_cast<std::int64_t>(total)};
    std::vector<dc::ShardDemand> dist;
    dist.push_back({"main", 27.0, 256LL << 20}); // dense params only
    for (int s = 0; s < 8; ++s)
        dist.push_back({"sparse", 0.4,
                        static_cast<std::int64_t>(total / 8.0)});

    const auto s_plan = dc::provision({singular}, platform, qps);
    const auto d_plan = dc::provision(dist, platform, qps);
    EXPECT_LT(d_plan.totalMemoryBytes(), s_plan.totalMemoryBytes() / 2);
}

} // namespace
