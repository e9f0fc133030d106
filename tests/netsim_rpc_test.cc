/**
 * @file
 * Tests for the network-link model (and its constructor's throw rules),
 * message sizing, the Thrift-like service costs, and the
 * service-discovery stub.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

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

/** A load read for the blind policies, which never call it. */
std::size_t
idle(int)
{
    return 0;
}

/** A load read over a per-server table. */
auto
loadOf(const std::vector<std::size_t> &load)
{
    return [&load](int server) {
        return load.at(static_cast<std::size_t>(server));
    };
}

constexpr rpc::LoadBalancePolicy kPolicies[] = {
    rpc::LoadBalancePolicy::RoundRobin,
    rpc::LoadBalancePolicy::LeastOutstanding,
    rpc::LoadBalancePolicy::PowerOfTwoChoices,
};

TEST(Discovery, RoundRobinAcrossReplicas)
{
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::RoundRobin, 1);
    EXPECT_EQ(dir.replicaCount(0), 3);
    EXPECT_EQ(dir.resolve(0, -1, idle), 0);
    EXPECT_EQ(dir.resolve(0, -1, idle), 1);
    EXPECT_EQ(dir.resolve(0, -1, idle), 2);
    EXPECT_EQ(dir.resolve(0, -1, idle), 0); // wraps
}

TEST(Discovery, ServersAreNumberedShardMajor)
{
    // A shard with no replicas still gets one server.
    rpc::ServiceDirectory dir({2, 0, 3}, rpc::LoadBalancePolicy::RoundRobin,
                              1);
    EXPECT_EQ(dir.replicaCount(0), 2);
    EXPECT_EQ(dir.replicaCount(1), 1);
    EXPECT_EQ(dir.replicaCount(2), 3);
    const std::vector<std::vector<int>> ids = {{0, 1}, {2}, {3, 4, 5}};
    for (int shard = 0; shard < 3; ++shard) {
        std::vector<int> seen;
        for (std::size_t i = 0; i < ids[shard].size(); ++i)
            seen.push_back(*dir.resolve(shard, -1, idle));
        EXPECT_EQ(seen, ids[shard]) << "shard " << shard;
    }
    EXPECT_THROW(dir.setServerHealth(6, false), std::out_of_range);
}

TEST(Discovery, IndependentShards)
{
    // Each shard keeps its own round-robin cursor.
    rpc::ServiceDirectory dir({2, 2}, rpc::LoadBalancePolicy::RoundRobin, 1);
    EXPECT_EQ(dir.resolve(0, -1, idle), 0);
    EXPECT_EQ(dir.resolve(1, -1, idle), 2);
    EXPECT_EQ(dir.resolve(1, -1, idle), 3);
    EXPECT_EQ(dir.resolve(0, -1, idle), 1);
}

TEST(Discovery, RoundRobinCursorIndexesTheFilteredCandidates)
{
    // The cursor indexes the candidates left after exclusion and health
    // filtering, and advances only when at least two remain.
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::RoundRobin, 1);
    EXPECT_EQ(dir.resolve(0, -1, idle), 0); // cursor 0 of {0,1,2}
    EXPECT_EQ(dir.resolve(0, 0, idle), 2);  // cursor 1 of {1,2}
    dir.setServerHealth(2, false);
    EXPECT_EQ(dir.resolve(0, -1, idle), 0); // cursor 2 of {0,1} wraps
    EXPECT_EQ(dir.resolve(0, 0, idle), 1);  // lone candidate: no advance
    EXPECT_EQ(dir.resolve(0, -1, idle), 1); // cursor 1 of {0,1}
    dir.setServerHealth(2, true);
    EXPECT_EQ(dir.resolve(0, -1, idle), 2); // cursor 2 of {0,1,2}
}

TEST(Discovery, LeastOutstandingPicksIdlestReplica)
{
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::LeastOutstanding,
                              1);
    std::vector<std::size_t> load{4, 1, 9};
    EXPECT_EQ(dir.resolve(0, -1, loadOf(load)), 1);
    load[1] = 6;
    EXPECT_EQ(dir.resolve(0, -1, loadOf(load)), 0);
}

TEST(Discovery, PowerOfTwoPicksLessLoadedOfPair)
{
    // With exactly two replicas the sampled pair is always {both}, so the
    // choice is fully determined by the load.
    rpc::ServiceDirectory dir({2}, rpc::LoadBalancePolicy::PowerOfTwoChoices,
                              99);
    const std::vector<std::size_t> load{5, 0};
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0, -1, loadOf(load)), 1);
}

TEST(Discovery, LeastOutstandingTiesBreakToLowestReplicaIndex)
{
    // Regression: hedging's second-choice replica must be reproducible
    // across platforms, so equal loads always resolve to the lowest
    // server id — never an iteration-order or rng-dependent pick.
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::LeastOutstanding,
                              1);
    const std::vector<std::size_t> flat{3, 3, 3};
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0, -1, loadOf(flat)), 0);
    // A partial tie below the current best also resolves to the earlier
    // of the tied replicas.
    const std::vector<std::size_t> load{9, 2, 2};
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dir.resolve(0, -1, loadOf(load)), 1);
}

TEST(Discovery, PowerOfTwoTiesBreakToLowestSampledIndex)
{
    // With equal loads everywhere, the pick is min(sampled pair) — so the
    // highest-numbered replica is never chosen: every pair containing it
    // also contains a lower id. Regression for the old behaviour of
    // returning whichever sample was drawn first.
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::PowerOfTwoChoices,
                              0x5eed);
    const std::vector<std::size_t> flat{2, 2, 2};
    bool saw0 = false, saw1 = false;
    for (int i = 0; i < 300; ++i) {
        const auto r = dir.resolve(0, -1, loadOf(flat));
        ASSERT_TRUE(r.has_value());
        EXPECT_NE(*r, 2);
        saw0 = saw0 || *r == 0;
        saw1 = saw1 || *r == 1;
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw1);
}

TEST(Discovery, ResolveCanExcludeTheHedgePrimary)
{
    rpc::ServiceDirectory dir({3}, rpc::LoadBalancePolicy::LeastOutstanding,
                              1);
    const std::vector<std::size_t> load{0, 3, 5};
    // The idlest replica is excluded (it is the hedge's primary): the
    // next-least-loaded candidate wins.
    EXPECT_EQ(dir.resolve(0, 0, loadOf(load)), 1);
    // Excluding the only replica of a shard yields no candidate.
    rpc::ServiceDirectory solo({1}, rpc::LoadBalancePolicy::RoundRobin, 1);
    EXPECT_EQ(solo.resolve(0, 0, idle), std::nullopt);
}

TEST(Discovery, ResolveBackupIsLoadAwareUnderAnyPolicy)
{
    // The backup choice reads the load even when the primary policy is
    // blind round-robin: a backup that lands on another deep queue
    // cannot outrun the primary.
    for (const auto policy : kPolicies) {
        rpc::ServiceDirectory dir({3}, policy, 1);
        std::vector<std::size_t> load{0, 7, 2};
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(dir.resolveBackup(0, 0, loadOf(load)), 2)
                << rpc::policyName(policy);
        EXPECT_EQ(dir.resolveBackup(0, 2, loadOf(load)), 0);
        // Ties among the candidates break to the lowest server id.
        load = {4, 1, 1};
        EXPECT_EQ(dir.resolveBackup(0, 0, loadOf(load)), 1);
    }
}

TEST(Discovery, UnhealthyReplicasAreExcludedUnderEveryPolicy)
{
    // Health-aware resolution: a replica marked dead must never be
    // handed out, under any balancing policy.
    const std::vector<std::size_t> load{0, 3, 5};
    for (const auto policy : kPolicies) {
        rpc::ServiceDirectory dir({3}, policy, 0x5eed);
        // 0 is the idlest AND first in round-robin order: excluding it
        // exercises the filter, not just an unlucky draw.
        dir.setServerHealth(0, false);
        for (int i = 0; i < 32; ++i) {
            const auto r = dir.resolve(0, -1, loadOf(load));
            ASSERT_TRUE(r.has_value())
                << rpc::policyName(policy) << " returned no candidate";
            EXPECT_NE(*r, 0) << rpc::policyName(policy)
                             << " resolved a dead replica";
        }
        // The hedge-backup path filters too: with 1 excluded, the one
        // healthy candidate left is 2.
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(dir.resolveBackup(0, 1, loadOf(load)), 2);
    }
}

TEST(Discovery, AllReplicasDeadResolvesToNothing)
{
    for (const auto policy : kPolicies) {
        rpc::ServiceDirectory dir({2}, policy, 1);
        dir.setServerHealth(0, false);
        dir.setServerHealth(1, false);
        // Graceful error, not a crash: the caller owns the failure path.
        EXPECT_EQ(dir.resolve(0, -1, idle), std::nullopt);
        EXPECT_EQ(dir.resolveBackup(0, 0, idle), std::nullopt);
        // The servers still belong to the shard (health != membership).
        EXPECT_EQ(dir.replicaCount(0), 2);
    }
}

TEST(Discovery, RestoredReplicaRejoinsRotation)
{
    rpc::ServiceDirectory dir({2}, rpc::LoadBalancePolicy::RoundRobin, 1);
    dir.setServerHealth(0, false);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dir.resolve(0, -1, idle), 1);
    dir.setServerHealth(0, true);
    bool saw0 = false;
    for (int i = 0; i < 4; ++i)
        saw0 = saw0 || dir.resolve(0, -1, idle) == 0;
    EXPECT_TRUE(saw0) << "restored replica never re-entered rotation";
    // Redundant health updates are no-ops, not state corruption: both
    // servers keep alternating.
    dir.setServerHealth(0, true);
    dir.setServerHealth(0, true);
    const auto first = dir.resolve(0, -1, idle);
    const auto second = dir.resolve(0, -1, idle);
    ASSERT_TRUE(first && second);
    EXPECT_NE(*first, *second);
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
