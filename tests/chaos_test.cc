/**
 * @file
 * Chaos-layer tests: the ServingSimulation runtime control surface
 * (killReplica / restoreReplica / degradeReplica / partitionShard),
 * fault accounting, determinism under injected faults, and the
 * fleet-level FaultSchedule script type.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/serving.h"
#include "core/strategies.h"
#include "fleet/fault_schedule.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "sched/capacity_search.h"
#include "workload/request_generator.h"

#include "span_digest.h"

namespace {

using namespace dri;

std::vector<workload::Request>
requestsFor(const model::ModelSpec &spec, std::size_t n,
            std::uint64_t seed = 5)
{
    workload::RequestGenerator gen(spec,
                                   workload::GeneratorConfig{seed, 0.0});
    return gen.generate(n);
}

core::ServingConfig
chaosConfig()
{
    core::ServingConfig cfg;
    cfg.seed = 0xc4a05;
    cfg.sparse_replicas = 2;
    return cfg;
}

/** Replica servers alive in a metrics snapshot. */
std::size_t
aliveServers(const core::ServingMetrics &m)
{
    return static_cast<std::size_t>(
        std::count_if(m.servers.begin(), m.servers.end(),
                      [](const core::ServerMetrics &s) { return s.alive; }));
}

double
meanE2eMs(const std::vector<core::RequestStats> &stats)
{
    double sum = 0.0;
    std::size_t served = 0;
    for (const auto &s : stats) {
        if (s.shed())
            continue;
        sum += static_cast<double>(s.e2e) / 1e6;
        ++served;
    }
    return served > 0 ? sum / static_cast<double>(served) : 0.0;
}

// ---------------------------------------------------------------------------
// killReplica / restoreReplica.
// ---------------------------------------------------------------------------

TEST(Chaos, KillReplicaRetriesMaskTheLossAndDiscoveryHealsIt)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto reqs = requestsFor(spec, 40);

    core::ServingSimulation sim(spec, plan, chaosConfig());
    const auto all = sim.metrics().servers.size();
    sim.killReplica(0);
    const core::ServingMetrics killed = sim.metrics();
    EXPECT_FALSE(killed.servers[0].alive);
    EXPECT_EQ(aliveServers(killed), all - 1);

    const auto stats = sim.replayOpenLoop(reqs, 500.0);
    ASSERT_EQ(stats.size(), reqs.size());
    // Every request still terminates: the dead replica costs timeouts
    // and failover retries, never hung requests.
    const core::FaultStats fs = sim.metrics().faults;
    EXPECT_EQ(fs.kills, 1u);
    EXPECT_GT(fs.dead_target_attempts, 0u);
    EXPECT_GT(fs.retries, 0u);
    // With a sibling replica per shard the retry path serves everything.
    for (const auto &s : stats)
        EXPECT_FALSE(s.shed());
    // 40 req at 500 QPS spans 80 ms > the 50 ms discovery lag: once the
    // directory reacts, primaries stop targeting the dead server — so
    // dead-target attempts stay well below the request count.
    EXPECT_LT(fs.dead_target_attempts, static_cast<std::uint64_t>(
                                           reqs.size() * plan.numShards()));
}

TEST(Chaos, KillAndRestoreAreIdempotentAndSymmetric)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingSimulation sim(spec, plan, chaosConfig());

    sim.killReplica(3);
    sim.killReplica(3); // redundant: no-op
    const core::ServingMetrics killed = sim.metrics();
    EXPECT_EQ(killed.faults.kills, 1u);
    EXPECT_FALSE(killed.servers[3].alive);

    sim.restoreReplica(3);
    sim.restoreReplica(3); // redundant: no-op
    const core::ServingMetrics restored = sim.metrics();
    EXPECT_EQ(restored.faults.restores, 1u);
    EXPECT_TRUE(restored.servers[3].alive);
    EXPECT_EQ(aliveServers(restored), restored.servers.size());

    // A restored fleet serves cleanly again.
    const auto stats = sim.replayOpenLoop(requestsFor(spec, 20), 400.0);
    for (const auto &s : stats)
        EXPECT_FALSE(s.shed());
}

// ---------------------------------------------------------------------------
// degradeReplica.
// ---------------------------------------------------------------------------

TEST(Chaos, DegradedReplicaInflatesLatencyDeterministically)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto reqs = requestsFor(spec, 30);

    core::ServingSimulation base(spec, plan, chaosConfig());
    const auto fast = base.replayOpenLoop(reqs, 400.0);

    core::ServingSimulation slow(spec, plan, chaosConfig());
    slow.degradeReplica(0, 8.0);
    const auto degraded = slow.replayOpenLoop(reqs, 400.0);

    // Persistent slow node: same draws (CRN), slower service on one
    // replica only — latency strictly worse, nothing shed or killed.
    EXPECT_GT(meanE2eMs(degraded), meanE2eMs(fast));
    EXPECT_EQ(slow.metrics().faults.kills, 0u);
    for (const auto &s : degraded)
        EXPECT_FALSE(s.shed());

    // Determinism: the degraded run reproduces byte-identically.
    core::ServingSimulation again(spec, plan, chaosConfig());
    again.degradeReplica(0, 8.0);
    const auto rerun = again.replayOpenLoop(reqs, 400.0);
    ASSERT_EQ(rerun.size(), degraded.size());
    for (std::size_t i = 0; i < rerun.size(); ++i)
        EXPECT_EQ(rerun[i].e2e, degraded[i].e2e);
}

// ---------------------------------------------------------------------------
// partitionShard.
// ---------------------------------------------------------------------------

TEST(Chaos, PartitionedShardShedsUpstreamAfterRetriesExhaust)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto reqs = requestsFor(spec, 12);

    core::ServingSimulation sim(spec, plan, chaosConfig());
    sim.partitionShard(0, true);
    const auto stats = sim.replayOpenLoop(reqs, 300.0);

    // Every fan-out needs shard 0; the partition drops primary AND
    // retry attempts, so requests fail upstream — gracefully shed with
    // the dedicated reason, never hung.
    const core::FaultStats fs = sim.metrics().faults;
    EXPECT_GT(fs.partition_drops, 0u);
    EXPECT_GT(fs.upstream_failures, 0u);
    std::size_t upstream_shed = 0;
    for (const auto &s : stats)
        if (s.shed_reason == core::ShedReason::UpstreamFailure)
            ++upstream_shed;
    EXPECT_GT(upstream_shed, 0u);

    // Healing the partition restores clean service on the same sim.
    sim.partitionShard(0, false);
    const auto healed = sim.replayOpenLoop(requestsFor(spec, 10, 9), 300.0);
    for (const auto &s : healed)
        EXPECT_FALSE(s.shed());
    EXPECT_EQ(sim.metrics().faults.partition_drops, fs.partition_drops);
}

// ---------------------------------------------------------------------------
// Every fault path at once, pinned.
// ---------------------------------------------------------------------------

using testutil::Digest;

/**
 * Hedged least-outstanding x3 with stragglers, mid-flight deadline
 * cancellation at overload, the result cache, and mid-run kill /
 * restore / degrade / partition calls that force failover retries,
 * lost-in-service work and upstream failures; then the same deployment
 * with one main worker pushed far past capacity. The fault counters with the
 * hedge counters and each request's latency and CPU accounting, and
 * every span of both tracers, fold into pinned digests: a refactor of
 * the serving core's attempt lifecycle must leave both unchanged.
 */
TEST(Chaos, KitchenSinkDigestsArePinned)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto cfg = sched::hedgeStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
    cfg.admission.max_main_queue = 64;
    cfg.admission.deadline_ns = 25 * sim::kMillisecond;
    cfg.admission.cancel_in_flight = true;
    cfg.result_cache.enabled = true;
    cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
    cfg.faults.rpc_timeout_ns = 2 * sim::kMillisecond;
    cfg.faults.discovery_lag_ns = 10 * sim::kMillisecond;
    obs::SpanTracer tracer;
    cfg.tracer = &tracer;

    // Each even request is followed by a content twin of the request 16
    // places back (fresh id), so repeats land inside the cache TTL.
    const auto base = requestsFor(spec, 240);
    std::vector<workload::Request> reqs;
    for (std::size_t i = 0; i < base.size(); ++i) {
        reqs.push_back(base[i]);
        if (i >= 16 && i % 2 == 0) {
            workload::Request twin = base[i - 16];
            twin.id += 100000;
            reqs.push_back(twin);
        }
    }

    // Server ids: shard s owns replicas 3s .. 3s+2.
    core::ServingSimulation sim(spec, plan, cfg);
    const auto at = [&sim](sim::SimTime t, std::function<void()> fn) {
        sim.engine().scheduleAt(t, sim::kEvDriver, std::move(fn));
    };
    const sim::Duration ms = sim::kMillisecond;
    at(5 * ms, [&sim] { sim.killReplica(0); });
    // A badly degraded replica builds a queue that its crash then loses.
    at(15 * ms, [&sim] { sim.degradeReplica(4, 40.0); });
    at(25 * ms, [&sim] { sim.killReplica(4); });
    at(30 * ms, [&sim] { sim.partitionShard(2, true); });
    at(45 * ms, [&sim] {
        sim.partitionShard(2, false);
        sim.restoreReplica(0);
        sim.restoreReplica(4);
        sim.degradeReplica(4, 1.0);
    });
    at(60 * ms, [&sim] { sim.killReplica(7); });
    // All of shard 3 down: once discovery catches up, resolution fails.
    at(65 * ms, [&sim] {
        for (int s = 9; s < 12; ++s)
            sim.killReplica(s);
    });
    at(90 * ms, [&sim] {
        for (int s : {7, 9, 10, 11})
            sim.restoreReplica(s);
    });
    const auto stats = sim.replayOpenLoop(reqs, 2500.0);
    ASSERT_EQ(stats.size(), reqs.size());

    // The same deployment with one main-shard worker and a tight
    // deadline, fault-free and far past capacity: the main queue
    // overflows, and requests are shed while they wait for a main core.
    cfg.worker_threads = 1;
    cfg.admission.deadline_ns = 5 * sim::kMillisecond;
    obs::SpanTracer burst_tracer;
    cfg.tracer = &burst_tracer;
    core::ServingSimulation overloaded(spec, plan, cfg);
    const auto burst =
        overloaded.replayOpenLoop(requestsFor(spec, 300, 7), 20000.0);
    ASSERT_EQ(burst.size(), 300u);

    // Together the two runs reach every fault and shed path they pin.
    const core::ServingMetrics m = sim.metrics();
    const core::FaultStats &fs = m.faults;
    std::size_t queue_shed = 0, deadline_shed = 0, upstream_shed = 0,
                cache_hits = 0;
    for (const auto *run : {&stats, &burst})
        for (const auto &s : *run) {
            queue_shed += s.shed_reason == core::ShedReason::QueueFull;
            deadline_shed +=
                s.shed_reason == core::ShedReason::DeadlineExceeded;
            upstream_shed +=
                s.shed_reason == core::ShedReason::UpstreamFailure;
            cache_hits += static_cast<std::size_t>(s.result_cache_hits);
        }
    EXPECT_EQ(fs.kills, 6u);
    EXPECT_EQ(fs.restores, 6u);
    EXPECT_GT(fs.dead_target_attempts, 0u);
    EXPECT_GT(fs.partition_drops, 0u);
    EXPECT_GT(fs.lost_in_service, 0u);
    EXPECT_GT(fs.retries, 0u);
    EXPECT_GT(fs.resolution_failures, 0u);
    EXPECT_GT(fs.upstream_failures, 0u);
    EXPECT_EQ(upstream_shed, fs.upstream_failures);
    EXPECT_GT(queue_shed, 0u);
    EXPECT_GT(deadline_shed, 0u);
    EXPECT_GT(m.shed_cancelled_rpcs, 0u);
    EXPECT_GT(m.hedge.hedges, 0u);
    EXPECT_GT(cache_hits, 0u);

    Digest ledger;
    for (const std::uint64_t v :
         {fs.kills, fs.restores, fs.dead_target_attempts, fs.partition_drops,
          fs.lost_in_service, fs.retries, fs.resolution_failures,
          fs.upstream_failures})
        ledger.mix(v);
    for (const core::ServingSimulation *run : {&sim, &overloaded}) {
        const core::ServingMetrics rm = run->metrics();
        const rpc::HedgeStats &h = rm.hedge;
        for (const std::uint64_t v :
             {h.primary_rpcs, h.hedges, h.wins, h.losses, h.cancelled,
              h.suppressed, rm.shed_cancelled_rpcs})
            ledger.mix(v);
        ledger.mixDouble(h.wasted_busy_ns);
    }
    for (const auto *run : {&stats, &burst})
        for (const auto &s : *run) {
            ledger.mixInt(s.e2e);
            ledger.mixInt(static_cast<std::int64_t>(s.shed_reason));
            ledger.mixDouble(s.hedge_wasted_cpu_ns);
            ledger.mixDouble(s.cpu_ops_ns);
            ledger.mixDouble(s.cpu_serde_ns);
            ledger.mixDouble(s.cpu_service_ns);
        }
    Digest spans;
    std::size_t span_count = 0;
    for (const obs::SpanTracer *t : {&tracer, &burst_tracer}) {
        span_count += testutil::mixSpans(spans, t->spans());
        // Every span closes, and none arrives after its tree was sealed.
        EXPECT_EQ(t->openCount(), 0u);
        ASSERT_NE(t->sampler(), nullptr);
        EXPECT_EQ(t->sampler()->stats().stale_span_drops, 0u);
    }
    EXPECT_EQ(ledger.h, 0xf9fdb2abf3919f2aull) << std::hex << ledger.h;
    EXPECT_EQ(spans.h, 0x91d24070e44f7fc0ull) << std::hex << spans.h;
    EXPECT_EQ(span_count, 33148u);
}

// ---------------------------------------------------------------------------
// Control-surface misuse throws in every build type.
// ---------------------------------------------------------------------------

/** A 4-shard, 2-replica deployment: server ids 0..7, shard ids 0..3. */
class ControlSurfaceMisuse : public ::testing::Test
{
  protected:
    const model::ModelSpec spec = model::makeDrm2();
    const core::ShardingPlan plan = core::makeCapacityBalanced(spec, 4);
    core::ServingSimulation sim{spec, plan, chaosConfig()};
    const int servers = static_cast<int>(sim.metrics().servers.size());
};

TEST_F(ControlSurfaceMisuse, KillReplicaRejectsOutOfRangeIds)
{
    EXPECT_THROW(sim.killReplica(servers), std::out_of_range);
    EXPECT_THROW(sim.killReplica(-1), std::out_of_range);
    const core::ServingMetrics m = sim.metrics();
    EXPECT_EQ(m.faults.kills, 0u);
    EXPECT_EQ(aliveServers(m), m.servers.size());
}

TEST_F(ControlSurfaceMisuse, RestoreReplicaRejectsOutOfRangeIds)
{
    EXPECT_THROW(sim.restoreReplica(servers), std::out_of_range);
    EXPECT_THROW(sim.restoreReplica(-1), std::out_of_range);
    EXPECT_EQ(sim.metrics().faults.restores, 0u);
}

TEST_F(ControlSurfaceMisuse, DegradeReplicaRejectsOutOfRangeIds)
{
    EXPECT_THROW(sim.degradeReplica(servers, 2.0), std::out_of_range);
    EXPECT_THROW(sim.degradeReplica(-1, 2.0), std::out_of_range);
}

TEST_F(ControlSurfaceMisuse, DegradeReplicaRejectsNonPositiveMultipliers)
{
    EXPECT_THROW(sim.degradeReplica(0, 0.0), std::invalid_argument);
    EXPECT_THROW(sim.degradeReplica(0, -1.0), std::invalid_argument);
    EXPECT_THROW(sim.degradeReplica(0, std::nan("")), std::invalid_argument);
    EXPECT_THROW(sim.degradeReplica(0, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_NO_THROW(sim.degradeReplica(0, 1.0));
}

TEST_F(ControlSurfaceMisuse, PartitionShardRejectsOutOfRangeIds)
{
    EXPECT_THROW(sim.partitionShard(plan.numShards(), true),
                 std::out_of_range);
    EXPECT_THROW(sim.partitionShard(-1, true), std::out_of_range);
}

// ---------------------------------------------------------------------------
// FaultSchedule.
// ---------------------------------------------------------------------------

TEST(FaultSchedule, WindowsAndActiveAt)
{
    fleet::FaultSchedule sched;
    sched.crashReplica(1, 0, /*start=*/2, /*end=*/4)
        .slowReplica(0, 1, 8.0, /*start=*/3, /*end=*/5)
        .snapshotStorm(6, 0.25);
    EXPECT_FALSE(sched.empty());
    EXPECT_EQ(sched.events().size(), 3u);

    EXPECT_TRUE(sched.activeAt(1).empty());
    ASSERT_EQ(sched.activeAt(2).size(), 1u);
    EXPECT_EQ(sched.activeAt(2)[0]->kind, fleet::FaultKind::ReplicaCrash);
    EXPECT_EQ(sched.activeAt(3).size(), 2u);
    // end_epoch is exclusive: the crash heals at epoch 4.
    ASSERT_EQ(sched.activeAt(4).size(), 1u);
    EXPECT_EQ(sched.activeAt(4)[0]->kind, fleet::FaultKind::SlowReplica);
    ASSERT_EQ(sched.activeAt(6).size(), 1u);
    EXPECT_EQ(sched.activeAt(6)[0]->kind, fleet::FaultKind::SnapshotStorm);
}

TEST(FaultSchedule, FingerprintIdentifiesTheScript)
{
    fleet::FaultSchedule a;
    a.crashReplica(0, 1, 2, 3).flashCrowd(2.0, 0.5, 4, 6);
    fleet::FaultSchedule b;
    b.crashReplica(0, 1, 2, 3).flashCrowd(2.0, 0.5, 4, 6);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    fleet::FaultSchedule c;
    c.crashReplica(0, 1, 2, 3).flashCrowd(2.0, 0.5, 4, 7);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    EXPECT_NE(a.fingerprint(), fleet::FaultSchedule{}.fingerprint());
}

TEST(FaultSchedule, KindNamesAndLabels)
{
    EXPECT_STREQ(fleet::faultKindName(fleet::FaultKind::ReplicaCrash),
                 "replica-crash");
    EXPECT_STREQ(fleet::faultKindName(fleet::FaultKind::FlashCrowd),
                 "flash-crowd");
    fleet::FaultEvent ev;
    ev.kind = fleet::FaultKind::Partition;
    EXPECT_EQ(ev.name(), "partition");
    ev.label = "az-link-cut";
    EXPECT_EQ(ev.name(), "az-link-cut");
}

} // namespace
