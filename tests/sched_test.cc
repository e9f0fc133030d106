/**
 * @file
 * Tests for the scheduling subsystem (src/sched): dynamic batching,
 * admission control / load shedding, replica load-balancing properties,
 * the SLO-driven capacity search and the provisioning loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/analysis.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/batcher.h"
#include "sched/capacity_search.h"
#include "sched/provision_loop.h"
#include "workload/diurnal.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

model::ModelSpec
testSpec()
{
    return model::makeDrm2();
}

std::vector<workload::Request>
testRequests(const model::ModelSpec &spec, std::size_t n)
{
    workload::GeneratorConfig gc;
    gc.seed = 0xbeef;
    workload::RequestGenerator gen(spec, gc);
    return gen.generate(n);
}

core::ShardingPlan
testPlan(const model::ModelSpec &spec)
{
    workload::GeneratorConfig gc;
    gc.seed = 0xbeef;
    workload::RequestGenerator gen(spec, gc);
    return core::makeLoadBalanced(spec, 4, gen.estimatePoolingFactors(500));
}

/** The shared overload-study deployment (sparse tier is the bottleneck). */
core::ServingConfig
sparseBoundConfig(int replicas, rpc::LoadBalancePolicy policy,
                  std::uint64_t seed = 0xd15c0)
{
    return sched::sparseBoundStudyConfig(policy, replicas, seed);
}

TEST(MergeRequests, SumsItemsAndLookups)
{
    const auto spec = testSpec();
    const auto reqs = testRequests(spec, 3);
    const auto merged = workload::mergeRequests(reqs);
    EXPECT_EQ(merged.id, reqs[0].id);
    EXPECT_EQ(merged.items, reqs[0].items + reqs[1].items + reqs[2].items);
    EXPECT_EQ(merged.totalLookups(), reqs[0].totalLookups() +
                                         reqs[1].totalLookups() +
                                         reqs[2].totalLookups());
    for (std::size_t t = 0; t < merged.table_lookups.size(); ++t)
        EXPECT_EQ(merged.table_lookups[t], reqs[0].table_lookups[t] +
                                               reqs[1].table_lookups[t] +
                                               reqs[2].table_lookups[t]);
}

TEST(DynamicBatcher, ExpandsMergedStatsPerOriginalRequest)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 20);

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    core::ServingSimulation sim(spec, plan, cfg);

    sched::BatcherConfig bc;
    bc.policy = sched::BatchPolicy::TimeoutCapped;
    bc.max_queue_delay_ns = 2 * sim::kMillisecond;
    const auto stats = sched::runBatchedOpenLoop(sim, requests, 2000.0, bc);

    ASSERT_EQ(stats.size(), requests.size());
    // Every original request id appears exactly once, with its own items.
    std::vector<std::uint64_t> ids;
    for (const auto &s : stats) {
        ids.push_back(s.id);
        const auto &orig = requests[s.id];
        EXPECT_EQ(s.items, orig.items);
        EXPECT_GE(s.batch_wait, 0);
        EXPECT_GE(s.coalesced, 1);
        EXPECT_GE(s.e2e, s.batch_wait);
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i);
}

TEST(DynamicBatcher, SizeCappedCoalescesAtHighRate)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 60);

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    core::ServingSimulation sim(spec, plan, cfg);

    sched::DynamicBatcher batcher(sim, [] {
        sched::BatcherConfig bc;
        bc.policy = sched::BatchPolicy::SizeCapped;
        bc.max_batch_items = 512; // ~5 mean DRM2 requests
        return bc;
    }());
    for (const auto &req : requests)
        batcher.offer(req); // all at t=0: pure size-triggered flushes
    batcher.flush();
    sim.engine().run();

    EXPECT_GT(batcher.meanCoalesced(), 1.5);
    EXPECT_LT(batcher.batchesInjected(), requests.size());
    EXPECT_EQ(batcher.takeStats().size(), requests.size());
}

TEST(DynamicBatcher, AdaptiveFlushesImmediatelyAtLowRate)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 40);

    // At 20 QPS the batch cannot plausibly fill within the delay bound,
    // so adaptive degenerates to no batching (typically 1 request per
    // injection) while timeout-capped holds every batch the full delay.
    sched::BatcherConfig adaptive;
    adaptive.policy = sched::BatchPolicy::Adaptive;
    adaptive.max_batch_items = 4096;
    adaptive.max_queue_delay_ns = 20 * sim::kMillisecond;
    sched::BatcherConfig timeout = adaptive;
    timeout.policy = sched::BatchPolicy::TimeoutCapped;

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    core::ServingSimulation sim_a(spec, plan, cfg);
    const auto stats_a =
        sched::runBatchedOpenLoop(sim_a, requests, 20.0, adaptive);
    core::ServingSimulation sim_t(spec, plan, cfg);
    const auto stats_t =
        sched::runBatchedOpenLoop(sim_t, requests, 20.0, timeout);

    const auto qa = core::latencyQuantiles(stats_a);
    const auto qt = core::latencyQuantiles(stats_t);
    EXPECT_LT(qa.p50_ms, qt.p50_ms);

    // Once the rate estimate exists, adaptive flushes immediately; only
    // the bootstrap batch may wait the full deadline.
    std::vector<sim::Duration> waits;
    for (const auto &s : stats_a)
        waits.push_back(s.batch_wait);
    std::sort(waits.begin(), waits.end());
    EXPECT_LT(waits[waits.size() / 2], sim::kMillisecond);
}

TEST(Sched, BatchedReplayIsDeterministic)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 150);

    const auto run = [&] {
        core::ServingSimulation sim(
            spec, plan,
            sparseBoundConfig(2, rpc::LoadBalancePolicy::PowerOfTwoChoices));
        sched::BatcherConfig bc;
        bc.policy = sched::BatchPolicy::Adaptive;
        return sched::runBatchedOpenLoop(sim, requests, 500.0, bc);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].e2e, b[i].e2e);
        EXPECT_EQ(a[i].batch_wait, b[i].batch_wait);
        EXPECT_EQ(a[i].coalesced, b[i].coalesced);
    }
}

TEST(Admission, QueueCapShedsUnderOverload)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    cfg.admission.max_main_queue = 4;
    core::ServingSimulation sim(spec, plan, cfg);
    // Far past saturation for an 8-worker main shard.
    const auto stats = sim.replayOpenLoop(requests, 2000.0);

    ASSERT_EQ(stats.size(), requests.size());
    const double rate = core::shedRate(stats);
    EXPECT_GT(rate, 0.05);
    EXPECT_LT(rate, 1.0);
    for (const auto &s : stats) {
        if (s.shed()) {
            EXPECT_EQ(s.shed_reason, core::ShedReason::QueueFull);
        }
    }

    // Quantiles must come from served requests only: the shed entries'
    // near-zero residence times would otherwise deflate the percentiles.
    const auto q = core::latencyQuantiles(stats);
    std::size_t served_below = 0, served = 0;
    for (const auto &s : stats)
        if (!s.shed()) {
            ++served;
            if (sim::toMillis(s.e2e) <= q.p50_ms)
                ++served_below;
        }
    ASSERT_GT(served, 0u);
    EXPECT_NEAR(static_cast<double>(served_below) /
                    static_cast<double>(served),
                0.5, 0.05);
}

TEST(Admission, DeadlineShedDropsOnlyLateRequests)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    cfg.admission.deadline_ns = 5 * sim::kMillisecond;
    core::ServingSimulation sim(spec, plan, cfg);
    const auto stats = sim.replayOpenLoop(requests, 2000.0);

    const double rate = core::shedRate(stats);
    EXPECT_GT(rate, 0.0);
    for (const auto &s : stats) {
        if (s.shed()) {
            EXPECT_EQ(s.shed_reason, core::ShedReason::DeadlineExceeded);
            EXPECT_GT(s.e2e, 5 * sim::kMillisecond);
        }
    }

    // No admission control: same load, nothing shed.
    core::ServingConfig open = cfg;
    open.admission = core::AdmissionConfig{};
    core::ServingSimulation sim2(spec, plan, open);
    EXPECT_EQ(core::shedRate(sim2.replayOpenLoop(requests, 2000.0)), 0.0);
}

TEST(Admission, DeadlineSeesBatcherWait)
{
    // A size-capped batcher that flushes only on the kMaxBatchRequests
    // request cap and at end-of-stream makes every rider wait far past
    // the deadline *inside the batcher*. The injection backdates arrival
    // to the oldest rider, so deadline-aware shedding must fire even
    // though the main-shard queue wait is ~0.
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 50);

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    cfg.admission.deadline_ns = 30 * sim::kMillisecond;
    core::ServingSimulation sim(spec, plan, cfg);

    sched::BatcherConfig bc;
    bc.policy = sched::BatchPolicy::SizeCapped;
    bc.max_batch_items = 1 << 30; // never item-triggered
    // 100 QPS over 50 requests: the stream spans ~500 ms, and the
    // kMaxBatchRequests (32) riders of the first batch span ~320 ms, so
    // the oldest rider's age dwarfs the 30 ms deadline at either flush.
    static_assert(sched::kMaxBatchRequests == 32);
    const auto stats = sched::runBatchedOpenLoop(sim, requests, 100.0, bc);

    ASSERT_EQ(stats.size(), requests.size());
    EXPECT_GT(core::shedRate(stats), 0.9);
    for (const auto &s : stats) {
        if (s.shed()) {
            EXPECT_EQ(s.shed_reason, core::ShedReason::DeadlineExceeded);
        }
    }
}

/**
 * Property: with live queue-depth information, power-of-two-choices never
 * builds a deeper worst-case replica backlog than blind round-robin on
 * the same heavy-tailed request stream, across seeds and rates around
 * the sparse tier's saturation point.
 */
TEST(LoadBalanceProperty, PowerOfTwoNeverExceedsRoundRobinMaxQueue)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 400);

    const auto max_peak = [&](rpc::LoadBalancePolicy policy,
                              std::uint64_t seed, double qps) {
        core::ServingSimulation sim(spec, plan,
                                    sparseBoundConfig(3, policy, seed));
        sim.replayOpenLoop(requests, qps);
        std::size_t peak = 0;
        for (const core::ServerMetrics &server : sim.metrics().servers)
            peak = std::max(peak, server.peak_queue);
        return peak;
    };

    for (const std::uint64_t seed : {0xd15c0ull, 0x5eedull, 0xfaceull})
        for (const double qps : {500.0, 800.0}) {
            const auto rr =
                max_peak(rpc::LoadBalancePolicy::RoundRobin, seed, qps);
            const auto p2c = max_peak(
                rpc::LoadBalancePolicy::PowerOfTwoChoices, seed, qps);
            EXPECT_LE(p2c, rr) << "seed=" << seed << " qps=" << qps;
        }
}

TEST(LoadBalance, LeastOutstandingImprovesTailUnderOverload)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 400);

    const auto p99 = [&](rpc::LoadBalancePolicy policy) {
        core::ServingSimulation sim(spec, plan,
                                    sparseBoundConfig(3, policy));
        return core::latencyQuantiles(sim.replayOpenLoop(requests, 800.0))
            .p99_ms;
    };
    EXPECT_LT(p99(rpc::LoadBalancePolicy::LeastOutstanding),
              p99(rpc::LoadBalancePolicy::RoundRobin));
}

// Same contract as ServingSimulation::replayOpenLoop: a non-positive or
// non-finite rate would turn every gap into an infinite or NaN double
// cast to int64, so it throws in every build type.
TEST(DynamicBatcher, OpenLoopRejectsNonPositiveOrNonFiniteQps)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 10);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    for (const double qps : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()})
        EXPECT_THROW(
            sched::runBatchedOpenLoop(sim, requests, qps, sched::BatcherConfig{}),
            std::invalid_argument)
            << qps;
    EXPECT_EQ(sim.engine().profile().scheduled, 0u);
    EXPECT_EQ(sched::runBatchedOpenLoop(sim, requests, 100.0,
                                        sched::BatcherConfig{})
                  .size(),
              requests.size());
}

TEST(DynamicBatcher, FlushesAtTheRequestCap)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests =
        testRequests(spec, 2 * sched::kMaxBatchRequests + 5);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});

    sched::BatcherConfig bc;
    bc.policy = sched::BatchPolicy::SizeCapped;
    bc.max_batch_items = 1 << 30; // never item-triggered
    sched::DynamicBatcher batcher(sim, bc);
    for (const auto &req : requests)
        batcher.offer(req); // all at t=0
    EXPECT_EQ(batcher.batchesInjected(), 2u);
    batcher.flush();
    sim.engine().run();
    EXPECT_EQ(batcher.batchesInjected(), 3u);
    EXPECT_EQ(batcher.takeStats().size(), requests.size());
}

TEST(DynamicBatcherMisuse, RejectsNonPositiveMaxBatchItems)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    for (const std::int64_t items : {0, -1}) {
        sched::BatcherConfig bc;
        bc.max_batch_items = items;
        EXPECT_THROW((sched::DynamicBatcher{sim, bc}), std::invalid_argument)
            << items;
    }
}

TEST(DynamicBatcherMisuse, RejectsNegativeMaxQueueDelay)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    sched::BatcherConfig bc;
    bc.max_queue_delay_ns = -1;
    EXPECT_THROW((sched::DynamicBatcher{sim, bc}), std::invalid_argument);
    bc.max_queue_delay_ns = 0; // flush on the next timer: allowed
    EXPECT_NO_THROW((sched::DynamicBatcher{sim, bc}));
}

TEST(CapacitySearch, FindsFeasibleBoundary)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    sched::CapacitySearchConfig sc;
    sc.slo.p99_ms = 60.0;
    sc.qps_lo = 50.0;
    sc.qps_hi = 2000.0;
    sc.grid_step = 1.15;

    sched::CapacitySearch search(
        spec, plan,
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding),
        sc);
    const auto result = search.run(requests);
    ASSERT_GT(result.max_qps, 0.0);
    ASSERT_LT(result.max_qps, 2000.0);
    // The returned rate was actually probed feasible, and some higher
    // probe was infeasible.
    bool found = false, infeasible_above = false;
    for (const auto &p : result.probes) {
        if (p.qps == result.max_qps && p.feasible)
            found = true;
        if (p.qps > result.max_qps && !p.feasible)
            infeasible_above = true;
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(infeasible_above);
}

// A bad search range is rejected at construction in every build type;
// run()'s geometric grid loop would otherwise never terminate.
TEST(CapacitySearch, RejectsGridsThatNeverTerminate)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto build = [&](const sched::CapacitySearchConfig &sc) {
        (void)sched::CapacitySearch(spec, plan, core::ServingConfig{}, sc);
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    sched::CapacitySearchConfig sc;
    EXPECT_NO_THROW(build(sc));

    // qps_lo must be finite and > 0.
    sc = {};
    sc.qps_lo = 0.0;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.qps_lo = -5.0;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.qps_lo = nan;
    EXPECT_THROW(build(sc), std::invalid_argument);

    // qps_hi must be finite and >= qps_lo.
    sc = {};
    sc.qps_hi = sc.qps_lo / 2.0;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.qps_hi = inf;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.qps_hi = nan;
    EXPECT_THROW(build(sc), std::invalid_argument);

    // grid_step must be finite and > 1.
    sc = {};
    sc.grid_step = 1.0;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.grid_step = 0.5;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.grid_step = nan;
    EXPECT_THROW(build(sc), std::invalid_argument);
    sc.grid_step = inf;
    EXPECT_THROW(build(sc), std::invalid_argument);
}

TEST(DynamicBatcher, QueueAwareFlushesImmediatelyWhenMainIdle)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 40);

    // At 20 QPS the main pool is idle when each request arrives, so the
    // queue-aware policy must behave like no batching while
    // timeout-capped holds every batch the full delay bound.
    sched::BatcherConfig qaware;
    qaware.policy = sched::BatchPolicy::QueueAware;
    qaware.max_batch_items = 4096;
    qaware.max_queue_delay_ns = 20 * sim::kMillisecond;
    sched::BatcherConfig timeout = qaware;
    timeout.policy = sched::BatchPolicy::TimeoutCapped;

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    core::ServingSimulation sim_q(spec, plan, cfg);
    const auto stats_q =
        sched::runBatchedOpenLoop(sim_q, requests, 20.0, qaware);
    core::ServingSimulation sim_t(spec, plan, cfg);
    const auto stats_t =
        sched::runBatchedOpenLoop(sim_t, requests, 20.0, timeout);

    EXPECT_LT(core::latencyQuantiles(stats_q).p50_ms,
              core::latencyQuantiles(stats_t).p50_ms);
    for (const auto &s : stats_q)
        EXPECT_LT(s.batch_wait, sim::kMillisecond);
}

TEST(DynamicBatcher, QueueAwareCoalescesUnderBacklog)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 200);

    // Past the main pool's knee a backlog persists, so the queue-aware
    // policy holds arrivals and batches form "for free" while the
    // adaptive policy (arrival-rate driven, large cap) barely coalesces.
    const auto coalesced = [&](sched::BatchPolicy policy) {
        sched::BatcherConfig bc;
        bc.policy = policy;
        bc.max_batch_items = 1024;
        bc.max_queue_delay_ns = 10 * sim::kMillisecond;
        core::ServingConfig cfg;
        cfg.seed = 0xd15c0;
        core::ServingSimulation sim(spec, plan, cfg);
        const auto stats =
            sched::runBatchedOpenLoop(sim, requests, 400.0, bc);
        double batches = 0.0;
        for (const auto &s : stats)
            batches += 1.0 / static_cast<double>(s.coalesced);
        return static_cast<double>(stats.size()) / batches;
    };
    EXPECT_GT(coalesced(sched::BatchPolicy::QueueAware),
              coalesced(sched::BatchPolicy::Adaptive));
    EXPECT_GT(coalesced(sched::BatchPolicy::QueueAware), 1.2);
}

TEST(Serving, HeterogeneousReplicaVectorShapesTheDeployment)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec); // 4 shards

    core::ServingConfig cfg;
    cfg.seed = 0xd15c0;
    cfg.sparse_replicas = 2; // fallback for unlisted shards
    cfg.sparse_replicas_per_shard = {3, 1, 2, 4};
    core::ServingSimulation sim(spec, plan, cfg);

    const core::ServingMetrics m = sim.metrics();
    EXPECT_EQ(m.servers.size(), 10u);
    std::vector<int> per_shard(4, 0);
    for (const core::ServerMetrics &server : m.servers)
        ++per_shard[static_cast<std::size_t>(server.shard)];
    EXPECT_EQ(per_shard, (std::vector<int>{3, 1, 2, 4}));
}

TEST(ProvisionLoop, EvenReplicaSplitSpreadsTheBudget)
{
    EXPECT_EQ(sched::evenReplicaSplit(8, 4), (std::vector<int>{2, 2, 2, 2}));
    EXPECT_EQ(sched::evenReplicaSplit(10, 4),
              (std::vector<int>{3, 3, 2, 2}));
    EXPECT_EQ(sched::evenReplicaSplit(2, 4), (std::vector<int>{1, 1, 1, 1}));
}

// Misuse: every rule throws std::invalid_argument in every build type.

/** A ProvisionLoop over a 4-shard plan with `pc`. */
sched::ProvisionLoop
makeLoop(const sched::ProvisionLoopConfig &pc)
{
    const auto spec = testSpec();
    return sched::ProvisionLoop(spec, core::makeCapacityBalanced(spec, 4),
                                core::ServingConfig{}, pc);
}

TEST(ProvisionLoopMisuse, EvenReplicaSplitRejectsNonPositiveShards)
{
    EXPECT_THROW(sched::evenReplicaSplit(4, 0), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsAPlanWithoutSparseShards)
{
    const auto spec = testSpec();
    EXPECT_THROW(sched::ProvisionLoop(spec, core::makeSingular(spec),
                                      core::ServingConfig{}, {}),
                 std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsANonPositiveQps)
{
    sched::ProvisionLoopConfig pc;
    pc.qps = 0.0;
    EXPECT_THROW(makeLoop(pc), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsANonPositiveTargetUtilization)
{
    sched::ProvisionLoopConfig pc;
    pc.target_utilization = 0.0;
    EXPECT_THROW(makeLoop(pc), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsFewerThanOneIteration)
{
    sched::ProvisionLoopConfig pc;
    pc.max_iterations = 0;
    EXPECT_THROW(makeLoop(pc), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsMinReplicasBelowOne)
{
    sched::ProvisionLoopConfig pc;
    pc.min_replicas = 0;
    EXPECT_THROW(makeLoop(pc), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, RejectsMaxReplicasBelowMin)
{
    sched::ProvisionLoopConfig pc;
    pc.min_replicas = 3;
    pc.max_replicas = 2;
    EXPECT_THROW(makeLoop(pc), std::invalid_argument);
}

TEST(ProvisionLoopMisuse, EvaluateRejectsAVectorOfTheWrongSize)
{
    auto loop = makeLoop({});
    const auto requests = testRequests(testSpec(), 10);
    EXPECT_THROW(loop.evaluate({2, 2}, requests), std::invalid_argument);
}

TEST(ProvisionLoop, ConvergesToLoadProportionalFixedPoint)
{
    const auto spec = testSpec();
    // Capacity-balanced: equal bytes, skewed compute — the plan where
    // per-shard replica counts should differ.
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 300);

    sched::ProvisionLoopConfig pc;
    pc.qps = 600.0;
    pc.target_utilization = 0.6;
    sched::ProvisionLoop loop(
        spec, plan,
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding),
        pc);
    const auto result = loop.run(requests);

    ASSERT_TRUE(result.converged);
    ASSERT_EQ(result.replicas.size(), 4u);
    // The fixed point reproduces itself under one more evaluation.
    const auto again = loop.evaluate(result.replicas, requests);
    EXPECT_EQ(again.provisioned, result.replicas);
    // Demand measurements are per-shard and positive.
    for (double c : result.trace.back().shard_cpu_ms_per_request)
        EXPECT_GT(c, 0.0);

    // At equal budget, load-proportional replication must not lose to
    // the even split on served P99.
    const auto even = sched::evenReplicaSplit(result.totalReplicas(),
                                              plan.numShards());
    const auto baseline = loop.evaluate(even, requests);
    EXPECT_LE(result.p99_ms, baseline.p99_ms);
}

// fleet::CapacityPlanner reads its first SLO check off the loop's last
// iteration instead of probing the same vector again. That is exact only
// while the iteration and a capacity probe of its vector measure the same
// run, on the fleet study's deployment (result cache, row-cache models)
// with and without hedging.
TEST(ProvisionLoop, LastIterationMatchesACapacityProbeOfItsVector)
{
    const fleet::FleetStudy study = fleet::makeFleetStudy(true);
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const auto requests =
        load.epochRequests(0, study.planner.planning_requests);

    for (const bool hedged : {false, true}) {
        core::ServingConfig serving = study.serving;
        serving.hedge.enabled = hedged;
        for (const double qps : {250.0, 600.0, 1100.0}) {
            SCOPED_TRACE(testing::Message()
                         << "hedged " << hedged << ", qps " << qps);
            sched::ProvisionLoopConfig pc;
            pc.qps = qps;
            pc.target_utilization = study.planner.target_utilization;
            pc.max_iterations = 4;
            pc.min_replicas = study.planner.min_replicas;
            pc.max_replicas = study.planner.max_replicas;
            const auto result =
                sched::ProvisionLoop(study.spec, study.plan, serving, pc)
                    .run(requests);
            ASSERT_FALSE(result.trace.empty());
            const sched::ProvisionIteration &last = result.trace.back();
            EXPECT_EQ(result.replicas, last.replicas);

            core::ServingConfig cfg = serving;
            cfg.sparse_replicas_per_shard = last.replicas;
            sched::CapacitySearchConfig sc;
            sc.slo = study.planner.slo;
            const auto probe =
                sched::CapacitySearch(study.spec, study.plan, cfg, sc)
                    .probe(qps, requests);
            EXPECT_EQ(last.p99_ms, probe.p99_ms);
            EXPECT_EQ(last.shed_rate, probe.shed_rate);
            EXPECT_EQ(sc.slo.met(last.p99_ms, last.shed_rate),
                      probe.feasible);
        }
    }
}

TEST(CapacitySearch, ProbeReportsHedgeColumns)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 200);

    sched::CapacitySearchConfig sc;
    sc.slo.p99_ms = 200.0;
    sched::CapacitySearch search(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                3, /*hedged=*/true),
        sc);
    const auto probe = search.probe(1500.0, requests);
    EXPECT_GT(probe.hedge_rate, 0.0);
    EXPECT_LE(probe.hedge_rate, 0.10 + 1e-9);
    EXPECT_GE(probe.hedge_wasted_frac, 0.0);

    sched::CapacitySearch unhedged(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                3, /*hedged=*/false),
        sc);
    EXPECT_EQ(unhedged.probe(1500.0, requests).hedge_rate, 0.0);
}

TEST(CapacitySearch, CapacityMonotoneInReplicas)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    sched::CapacitySearchConfig sc;
    sc.slo.p99_ms = 60.0;
    sc.qps_lo = 50.0;
    sc.qps_hi = 2000.0;
    sc.grid_step = 1.15;

    double prev = 0.0;
    for (const int replicas : {1, 2, 3}) {
        sched::CapacitySearch search(
            spec, plan,
            sparseBoundConfig(replicas,
                              rpc::LoadBalancePolicy::LeastOutstanding),
            sc);
        const double cap = search.run(requests).max_qps;
        EXPECT_GE(cap, prev) << "replicas=" << replicas;
        prev = cap;
    }
    EXPECT_GT(prev, 0.0);
}

/**
 * The one-probe-at-a-time search CapacitySearch::run must reproduce,
 * built from public probe() calls: both endpoints, then bisection.
 */
sched::CapacityResult
sequentialSearch(sched::CapacitySearch &search,
                 const sched::CapacitySearchConfig &sc,
                 const std::vector<workload::Request> &requests)
{
    std::vector<double> grid;
    for (double q = sc.qps_lo; q < sc.qps_hi; q *= sc.grid_step)
        grid.push_back(q);
    grid.push_back(sc.qps_hi);

    sched::CapacityResult result;
    const auto record = [&](std::size_t idx) {
        result.probes.push_back(search.probe(grid[idx], requests));
        return result.probes.back().feasible;
    };
    if (!record(0))
        return result;
    if (record(grid.size() - 1)) {
        result.max_qps = grid.back();
        return result;
    }
    std::size_t lo = 0, hi = grid.size() - 1;
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        (record(mid) ? lo : hi) = mid;
    }
    result.max_qps = grid[lo];
    return result;
}

/** run() == the sequential reference, field by field, probe by probe. */
sched::CapacityResult
expectRunMatchesSequential(const core::ServingConfig &serving,
                           const sched::CapacitySearchConfig &sc,
                           const std::vector<workload::Request> &requests)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    sched::CapacitySearch search(spec, plan, serving, sc);
    const auto got = search.run(requests);
    const auto want = sequentialSearch(search, sc, requests);
    EXPECT_EQ(got.max_qps, want.max_qps);
    EXPECT_EQ(got.probes.size(), want.probes.size());
    for (std::size_t i = 0;
         i < std::min(got.probes.size(), want.probes.size()); ++i) {
        const auto &g = got.probes[i];
        const auto &w = want.probes[i];
        EXPECT_EQ(g.qps, w.qps) << "probe " << i;
        EXPECT_EQ(g.p99_ms, w.p99_ms) << "probe " << i;
        EXPECT_EQ(g.p999_ms, w.p999_ms) << "probe " << i;
        EXPECT_EQ(g.shed_rate, w.shed_rate) << "probe " << i;
        EXPECT_EQ(g.feasible, w.feasible) << "probe " << i;
        EXPECT_EQ(g.hedge_rate, w.hedge_rate) << "probe " << i;
        EXPECT_EQ(g.hedge_wasted_frac, w.hedge_wasted_frac) << "probe " << i;
    }
    return got;
}

sched::CapacitySearchConfig
boundarySearchConfig()
{
    sched::CapacitySearchConfig sc;
    sc.slo.p99_ms = 60.0;
    sc.qps_lo = 50.0;
    sc.qps_hi = 2000.0;
    sc.grid_step = 1.15;
    return sc;
}

TEST(CapacitySearch, RunMatchesSequentialAtAnInteriorBoundary)
{
    const auto requests = testRequests(testSpec(), 300);
    const auto got = expectRunMatchesSequential(
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                2, /*hedged=*/true),
        boundarySearchConfig(), requests);
    EXPECT_GT(got.max_qps, 50.0);
    EXPECT_LT(got.max_qps, 2000.0);
    EXPECT_GT(got.probes.size(), 4u); // endpoints plus several bisections
    bool hedged = false;
    for (const auto &p : got.probes)
        hedged = hedged || p.hedge_rate > 0.0;
    EXPECT_TRUE(hedged);
}

TEST(CapacitySearch, RunMatchesSequentialWhenTheWholeGridIsFeasible)
{
    const auto requests = testRequests(testSpec(), 200);
    auto sc = boundarySearchConfig();
    sc.qps_hi = 80.0;
    const auto got = expectRunMatchesSequential(
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding), sc,
        requests);
    EXPECT_EQ(got.max_qps, sc.qps_hi);
    EXPECT_EQ(got.probes.size(), 2u);
}

TEST(CapacitySearch, RunMatchesSequentialWhenTheFloorIsInfeasible)
{
    const auto requests = testRequests(testSpec(), 200);
    auto sc = boundarySearchConfig();
    sc.slo.p99_ms = 1e-3;
    const auto got = expectRunMatchesSequential(
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding), sc,
        requests);
    EXPECT_EQ(got.max_qps, 0.0);
    EXPECT_EQ(got.probes.size(), 1u);
}

TEST(CapacitySearch, RunMatchesSequentialOnAOnePointGrid)
{
    const auto requests = testRequests(testSpec(), 200);
    auto sc = boundarySearchConfig();
    sc.qps_lo = sc.qps_hi = 100.0;
    // Feasible: the lone point is both endpoints and is recorded twice.
    const auto feasible = expectRunMatchesSequential(
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding), sc,
        requests);
    EXPECT_EQ(feasible.max_qps, 100.0);
    EXPECT_EQ(feasible.probes.size(), 2u);

    sc.slo.p99_ms = 1e-3;
    const auto infeasible = expectRunMatchesSequential(
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding), sc,
        requests);
    EXPECT_EQ(infeasible.max_qps, 0.0);
    EXPECT_EQ(infeasible.probes.size(), 1u);
}

TEST(CapacitySearch, RunMatchesSequentialThroughTheBatcher)
{
    const auto requests = testRequests(testSpec(), 300);
    auto sc = boundarySearchConfig();
    sc.use_batcher = true;
    const auto got = expectRunMatchesSequential(
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding), sc,
        requests);
    EXPECT_GT(got.max_qps, 0.0);
    EXPECT_LT(got.max_qps, 2000.0);
}

// Probes run concurrently, so run() refuses a shared observer in every
// build type; probe() still takes one.
TEST(CapacitySearch, RunRejectsASharedObserver)
{
    const auto spec = testSpec();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 20);
    const auto cfg =
        sparseBoundConfig(2, rpc::LoadBalancePolicy::LeastOutstanding);
    const auto sc = boundarySearchConfig();

    obs::SpanTracer tracer;
    auto traced = cfg;
    traced.tracer = &tracer;
    sched::CapacitySearch with_tracer(spec, plan, traced, sc);
    EXPECT_THROW(with_tracer.run(requests), std::invalid_argument);
    EXPECT_NO_THROW(with_tracer.probe(100.0, requests));

    obs::RollingHistogram feed;
    auto fed = cfg;
    fed.latency_feed = &feed;
    EXPECT_THROW(sched::CapacitySearch(spec, plan, fed, sc).run(requests),
                 std::invalid_argument);
}

} // namespace
