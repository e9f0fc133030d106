/**
 * @file
 * Tests for the analysis layer: overhead math, stack construction, and
 * per-shard aggregation over synthetic RequestStats.
 */
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "sim/time.h"

namespace {

using namespace dri;
using core::RequestStats;

RequestStats
makeStats(double e2e_ms, double cpu_ms)
{
    RequestStats s;
    s.e2e = sim::fromMillis(e2e_ms);
    s.cpu_ops_ns = cpu_ms * 1e6;
    return s;
}

TEST(Analysis, LatencyQuantiles)
{
    std::vector<RequestStats> stats;
    for (int i = 1; i <= 100; ++i)
        stats.push_back(makeStats(static_cast<double>(i), 1.0));
    const auto q = core::latencyQuantiles(stats);
    EXPECT_NEAR(q.p50_ms, 50.5, 0.01);
    EXPECT_NEAR(q.p90_ms, 90.1, 0.01);
    EXPECT_NEAR(q.p99_ms, 99.01, 0.01);
}

TEST(Analysis, OverheadVsBaseline)
{
    std::vector<RequestStats> base, config;
    for (int i = 0; i < 100; ++i) {
        base.push_back(makeStats(10.0, 20.0));
        config.push_back(makeStats(11.0, 25.0));
    }
    const auto o = core::computeOverhead("x", base, config);
    EXPECT_NEAR(o.latency_overhead[0], 0.10, 1e-9);
    EXPECT_NEAR(o.latency_overhead[2], 0.10, 1e-9);
    EXPECT_NEAR(o.compute_overhead[0], 0.25, 1e-9);
    EXPECT_EQ(o.label, "x");
}

TEST(Analysis, LatencyStackUsesMedianWindow)
{
    std::vector<RequestStats> stats;
    // 10 small requests with dense=1ms, one huge outlier with dense=100ms.
    for (int i = 0; i < 10; ++i) {
        RequestStats s;
        s.e2e = sim::fromMillis(2.0);
        s.lat_dense = sim::fromMillis(1.0);
        s.lat_embedded = sim::fromMillis(1.0);
        stats.push_back(s);
    }
    RequestStats huge;
    huge.e2e = sim::fromMillis(200.0);
    huge.lat_dense = sim::fromMillis(100.0);
    stats.push_back(huge);

    const auto stack = core::latencyStack(stats);
    // Median window excludes the outlier.
    EXPECT_NEAR(stack[0].second, 1.0, 1e-9); // Dense Ops
    EXPECT_NEAR(stack[1].second, 1.0, 1e-9); // Embedded
    EXPECT_NEAR(core::stackTotal(stack), 2.0, 1e-9);
}

TEST(Analysis, EmbeddedAndCpuStacksCarryBuckets)
{
    std::vector<RequestStats> stats;
    RequestStats s;
    s.e2e = sim::fromMillis(1.0);
    s.emb_sparse_op = sim::fromMillis(0.2);
    s.emb_network = sim::fromMillis(0.5);
    s.cpu_ops_ns = 3e6;
    s.cpu_serde_ns = 2e6;
    s.cpu_service_ns = 1e6;
    stats.push_back(s);

    const auto emb = core::embeddedStack(stats);
    EXPECT_EQ(emb[0].first, "Caffe2 Sparse Ops");
    EXPECT_NEAR(emb[0].second, 0.2, 1e-9);
    EXPECT_EQ(emb[4].first, "Network Latency");
    EXPECT_NEAR(emb[4].second, 0.5, 1e-9);

    const auto cpu = core::cpuStack(stats);
    EXPECT_NEAR(core::stackTotal(cpu), 6.0, 1e-9);
}

TEST(Analysis, PerShardAggregation)
{
    std::vector<RequestStats> stats;
    for (int i = 0; i < 4; ++i) {
        RequestStats s;
        s.e2e = 1;
        s.shard_op_ns = {1e6, 3e6};
        s.shard_net_op_ns = {0.5e6, 0.5e6, 3e6, 0.0};
        stats.push_back(s);
    }
    const auto per_shard = core::perShardOpLatency(stats, 2);
    EXPECT_NEAR(per_shard[0], 1.0, 1e-9);
    EXPECT_NEAR(per_shard[1], 3.0, 1e-9);

    const auto by_net = core::perShardOpLatencyByNet(stats, 2, 2);
    EXPECT_NEAR(by_net[0][0], 0.5, 1e-9);
    EXPECT_NEAR(by_net[1][0], 3.0, 1e-9);
    EXPECT_NEAR(by_net[1][1], 0.0, 1e-9);
}

TEST(Analysis, Means)
{
    std::vector<RequestStats> stats;
    RequestStats a;
    a.e2e = 1;
    a.rpc_count = 4;
    a.cpu_ops_ns = 1e6;
    RequestStats b;
    b.e2e = 1;
    b.rpc_count = 8;
    b.cpu_ops_ns = 3e6;
    stats.push_back(a);
    stats.push_back(b);
    EXPECT_DOUBLE_EQ(core::meanRpcCount(stats), 6.0);
    EXPECT_DOUBLE_EQ(core::meanCpuMs(stats), 2.0);
}

TEST(Analysis, EmptyInputsSafe)
{
    std::vector<RequestStats> empty;
    EXPECT_DOUBLE_EQ(core::meanRpcCount(empty), 0.0);
    EXPECT_DOUBLE_EQ(core::meanCpuMs(empty), 0.0);
    const auto per_shard = core::perShardOpLatency(empty, 3);
    EXPECT_EQ(per_shard.size(), 3u);
}

} // namespace
