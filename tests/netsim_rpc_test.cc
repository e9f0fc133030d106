/**
 * @file
 * Tests for the network-link model (and its constructor's throw rules),
 * message sizing, the Thrift-like service costs, and the
 * service-discovery stub.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>

#include "netsim/link_model.h"
#include "netsim/message.h"
#include "rpc/discovery.h"
#include "rpc/service.h"
#include "stats/quantile.h"

namespace {

using namespace dri;

TEST(LinkModel, JitterIsLognormalAroundBase)
{
    netsim::LinkConfig config;
    config.base_one_way_ns = 100000;
    config.jitter_sigma = 0.25;
    netsim::LinkModel link(config);
    stats::Rng rng(5);
    stats::QuantileEstimator q;
    for (int i = 0; i < 20000; ++i)
        q.add(static_cast<double>(link.oneWayDelay(0, rng)));
    // Median ~ base; tail above base; never non-positive.
    EXPECT_NEAR(q.p50(), 100000.0, 3000.0);
    EXPECT_GT(q.p99(), 150000.0);
    EXPECT_GT(q.min(), 0.0);
}

TEST(LinkModelMisuse, NegativeBaseLatencyThrows)
{
    netsim::LinkConfig config;
    config.base_one_way_ns = -1;
    EXPECT_THROW(netsim::LinkModel{config}, std::invalid_argument);
}

TEST(LinkModelMisuse, NegativeJitterSigmaThrows)
{
    netsim::LinkConfig config;
    config.jitter_sigma = -0.25;
    EXPECT_THROW(netsim::LinkModel{config}, std::invalid_argument);
}

TEST(LinkModelMisuse, NonPositiveBandwidthThrows)
{
    for (const double bw : {0.0, -6.0, std::nan("")}) {
        netsim::LinkConfig config;
        config.bandwidth_bytes_per_ns = bw;
        EXPECT_THROW(netsim::LinkModel{config}, std::invalid_argument)
            << bw;
    }
}

TEST(LinkModel, BiggerMessagesSlower)
{
    netsim::LinkModel link(netsim::LinkConfig{});
    stats::Rng rng1(7), rng2(7); // identical jitter draws
    EXPECT_LT(link.oneWayDelay(100, rng1), link.oneWayDelay(1000000, rng2));
}

TEST(Message, SparseRequestScalesWithLookups)
{
    const auto small = netsim::sparseRequestBytes(10, 5, 4);
    const auto big = netsim::sparseRequestBytes(1000, 5, 4);
    EXPECT_EQ(big - small, (1000 - 10) * 8);
    EXPECT_GE(small, netsim::kRpcEnvelopeBytes);
}

TEST(Message, SparseResponseScalesWithDimsAndItems)
{
    EXPECT_EQ(netsim::sparseResponseBytes(32, 64) -
                  netsim::kRpcEnvelopeBytes,
              32 * 64 * 4);
}

TEST(Message, RankingRequestCountsItemsAndIndices)
{
    const auto bytes = netsim::rankingRequestBytes(512.0, 100, 5000);
    EXPECT_EQ(bytes, netsim::kRpcEnvelopeBytes + 51200 + 40000);
    EXPECT_EQ(netsim::rankingResponseBytes(100),
              netsim::kRpcEnvelopeBytes + 400);
}

TEST(Service, SerdeProportionalToBytes)
{
    // 0.08 ns per byte, rounded to the nearest nanosecond.
    EXPECT_EQ(rpc::serdeNs(1000), 80);
    EXPECT_EQ(rpc::serdeNs(0), 0);
}

TEST(Service, NetOverheadGrowsWithAsyncOps)
{
    EXPECT_EQ(rpc::netOverheadNs(0), rpc::kNetOverheadNs);
    EXPECT_LT(rpc::netOverheadNs(0), rpc::netOverheadNs(8));
    EXPECT_EQ(rpc::netOverheadNs(8) - rpc::netOverheadNs(0),
              8 * rpc::kAsyncOpOverheadNs);
}

TEST(Discovery, RoundRobinAcrossReplicas)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 100);
    dir.registerReplica(0, 101);
    dir.registerReplica(0, 102);
    EXPECT_EQ(dir.replicaCount(0), 3u);
    EXPECT_EQ(dir.resolve(0), 100);
    EXPECT_EQ(dir.resolve(0), 101);
    EXPECT_EQ(dir.resolve(0), 102);
    EXPECT_EQ(dir.resolve(0), 100); // wraps
}

TEST(Discovery, IndependentShards)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 1);
    dir.registerReplica(5, 2);
    EXPECT_EQ(dir.replicaCount(3), 0u);
    EXPECT_EQ(dir.resolve(0), 1);
    EXPECT_EQ(dir.resolve(5), 2);
    EXPECT_EQ(dir.replicas(5).size(), 1u);
}

TEST(Discovery, UnknownShardIsAnErrorNotACrash)
{
    // Regression: resolve() used to assert on unknown shards.
    rpc::ServiceDirectory dir;
    EXPECT_EQ(dir.resolve(7), std::nullopt);
    EXPECT_TRUE(dir.replicas(7).empty());
    dir.registerReplica(7, 42);
    EXPECT_EQ(dir.resolve(7), 42);
}

TEST(Discovery, LeastOutstandingPicksIdlestReplica)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 10);
    dir.registerReplica(0, 11);
    dir.registerReplica(0, 12);
    dir.setPolicy(rpc::LoadBalancePolicy::LeastOutstanding);
    std::map<int, std::size_t> load{{10, 4}, {11, 1}, {12, 9}};
    dir.setLoadProbe([&](int server) { return load[server]; });
    EXPECT_EQ(dir.resolve(0), 11);
    load[11] = 6;
    EXPECT_EQ(dir.resolve(0), 10);
}

TEST(Discovery, PowerOfTwoPicksLessLoadedOfPair)
{
    // With exactly two replicas the sampled pair is always {both}, so the
    // choice is fully determined by the probe.
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 20);
    dir.registerReplica(0, 21);
    dir.setPolicy(rpc::LoadBalancePolicy::PowerOfTwoChoices, 99);
    std::map<int, std::size_t> load{{20, 5}, {21, 0}};
    dir.setLoadProbe([&](int server) { return load[server]; });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0), 21);
}

TEST(Discovery, LoadAwarePoliciesFallBackWithoutProbe)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 1);
    dir.registerReplica(0, 2);
    dir.setPolicy(rpc::LoadBalancePolicy::LeastOutstanding);
    EXPECT_EQ(dir.resolve(0), 1); // round-robin fallback
    EXPECT_EQ(dir.resolve(0), 2);
}

TEST(Discovery, LeastOutstandingTiesBreakToLowestReplicaIndex)
{
    // Regression: hedging's second-choice replica must be reproducible
    // across platforms, so equal loads always resolve to the earliest-
    // registered (lowest-index) replica — never an iteration-order or
    // rng-dependent pick.
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 30);
    dir.registerReplica(0, 31);
    dir.registerReplica(0, 32);
    dir.setPolicy(rpc::LoadBalancePolicy::LeastOutstanding);
    dir.setLoadProbe([](int) { return std::size_t{3}; });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0), 30);
    // A partial tie below the current best also resolves to the earlier
    // of the tied replicas.
    std::map<int, std::size_t> load{{30, 9}, {31, 2}, {32, 2}};
    dir.setLoadProbe([&](int server) { return load[server]; });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0), 31);
}

TEST(Discovery, PowerOfTwoTiesBreakToLowestSampledIndex)
{
    // With equal loads everywhere, the pick is min(sampled pair) — so the
    // last-registered replica can only ever be chosen... never: every
    // pair containing it also contains a lower index. Regression for the
    // old behaviour of returning whichever sample was drawn first.
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 40);
    dir.registerReplica(0, 41);
    dir.registerReplica(0, 42);
    dir.setPolicy(rpc::LoadBalancePolicy::PowerOfTwoChoices, 0x5eed);
    dir.setLoadProbe([](int) { return std::size_t{2}; });
    bool saw40 = false, saw41 = false;
    for (int i = 0; i < 300; ++i) {
        const auto r = dir.resolve(0);
        ASSERT_TRUE(r.has_value());
        EXPECT_NE(*r, 42);
        saw40 = saw40 || *r == 40;
        saw41 = saw41 || *r == 41;
    }
    EXPECT_TRUE(saw40);
    EXPECT_TRUE(saw41);
}

TEST(Discovery, ResolveCanExcludeTheHedgePrimary)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 50);
    dir.registerReplica(0, 51);
    dir.registerReplica(0, 52);
    dir.setPolicy(rpc::LoadBalancePolicy::LeastOutstanding);
    std::map<int, std::size_t> load{{50, 0}, {51, 3}, {52, 5}};
    dir.setLoadProbe([&](int server) { return load[server]; });
    // The idlest replica is excluded (it is the hedge's primary): the
    // next-least-loaded candidate wins.
    EXPECT_EQ(dir.resolve(0, 50), 51);
    // Excluding the only replica of a shard yields no candidate.
    rpc::ServiceDirectory solo;
    solo.registerReplica(1, 9);
    EXPECT_EQ(solo.resolve(1, 9), std::nullopt);
}

TEST(Discovery, ResolveBackupIsLoadAwareUnderAnyPolicy)
{
    // The backup choice uses the probe even when the primary policy is
    // blind round-robin: a backup that lands on another deep queue
    // cannot outrun the primary.
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 60);
    dir.registerReplica(0, 61);
    dir.registerReplica(0, 62);
    dir.setPolicy(rpc::LoadBalancePolicy::RoundRobin);
    std::map<int, std::size_t> load{{60, 0}, {61, 7}, {62, 2}};
    dir.setLoadProbe([&](int server) { return load[server]; });
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dir.resolveBackup(0, 60), 62);
    EXPECT_EQ(dir.resolveBackup(0, 62), 60);
    // Ties among the candidates break to the lowest replica index.
    load = {{60, 4}, {61, 1}, {62, 1}};
    EXPECT_EQ(dir.resolveBackup(0, 60), 61);
}

TEST(Discovery, UnhealthyReplicasAreExcludedUnderEveryPolicy)
{
    // Health-aware resolution: a replica marked dead must never be
    // handed out, under any balancing policy.
    const std::map<int, std::size_t> load{{70, 0}, {71, 3}, {72, 5}};
    for (const auto policy : {rpc::LoadBalancePolicy::RoundRobin,
                              rpc::LoadBalancePolicy::LeastOutstanding,
                              rpc::LoadBalancePolicy::PowerOfTwoChoices}) {
        rpc::ServiceDirectory dir;
        dir.registerReplica(0, 70);
        dir.registerReplica(0, 71);
        dir.registerReplica(0, 72);
        dir.setPolicy(policy, 0x5eed);
        dir.setLoadProbe([&](int server) { return load.at(server); });
        // 70 is the idlest AND first in round-robin order: excluding it
        // exercises the filter, not just an unlucky draw.
        dir.setServerHealth(70, false);
        EXPECT_FALSE(dir.serverHealthy(70));
        EXPECT_EQ(dir.healthyReplicaCount(0), 2u);
        for (int i = 0; i < 32; ++i) {
            const auto r = dir.resolve(0);
            ASSERT_TRUE(r.has_value())
                << rpc::policyName(policy) << " returned no candidate";
            EXPECT_NE(*r, 70) << rpc::policyName(policy)
                              << " resolved a dead replica";
        }
        // The hedge-backup path filters too.
        for (int i = 0; i < 8; ++i)
            EXPECT_NE(dir.resolveBackup(0, 71), 70);
    }
}

TEST(Discovery, AllReplicasDeadResolvesToNothing)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 80);
    dir.registerReplica(0, 81);
    dir.setServerHealth(80, false);
    dir.setServerHealth(81, false);
    EXPECT_EQ(dir.healthyReplicaCount(0), 0u);
    // Graceful error, not a crash: the caller owns the failure path.
    EXPECT_EQ(dir.resolve(0), std::nullopt);
    EXPECT_EQ(dir.resolveBackup(0, 80), std::nullopt);
    // Registered replicas are still listed (health != membership).
    EXPECT_EQ(dir.replicaCount(0), 2u);
}

TEST(Discovery, RestoredReplicaRejoinsRotation)
{
    rpc::ServiceDirectory dir;
    dir.registerReplica(0, 90);
    dir.registerReplica(0, 91);
    dir.setServerHealth(90, false);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dir.resolve(0), 91);
    dir.setServerHealth(90, true);
    EXPECT_TRUE(dir.serverHealthy(90));
    EXPECT_EQ(dir.healthyReplicaCount(0), 2u);
    bool saw90 = false;
    for (int i = 0; i < 4; ++i)
        saw90 = saw90 || dir.resolve(0) == 90;
    EXPECT_TRUE(saw90) << "restored replica never re-entered rotation";
    // Redundant health updates are no-ops, not state corruption.
    dir.setServerHealth(90, true);
    dir.setServerHealth(90, true);
    EXPECT_EQ(dir.healthyReplicaCount(0), 2u);
}

TEST(Discovery, PolicyNames)
{
    EXPECT_STREQ(rpc::policyName(rpc::LoadBalancePolicy::RoundRobin),
                 "round-robin");
    EXPECT_STREQ(rpc::policyName(rpc::LoadBalancePolicy::LeastOutstanding),
                 "least-outstanding");
    EXPECT_STREQ(rpc::policyName(rpc::LoadBalancePolicy::PowerOfTwoChoices),
                 "power-of-two");
}

} // namespace
