/**
 * @file
 * Tests for hedged sparse RPCs (rpc/hedge + the serving engine's racing
 * attempts): the latency tracker, hedge bookkeeping invariants,
 * determinism, and the headline properties
 * — hedged P99 no worse than unhedged at >= 90% mean sparse utilization
 * across seeds, and wasted duplicate work bounded by the hedge budget at
 * low load.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include "core/analysis.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/critical_path.h"
#include "obs/span_tracer.h"
#include "rpc/hedge.h"
#include "sched/capacity_search.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

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

double
meanUtil(const core::ServingSimulation &sim)
{
    double acc = 0.0;
    const auto util = sim.serverUtilization();
    for (double u : util)
        acc += u;
    return util.empty() ? 0.0 : acc / static_cast<double>(util.size());
}

/**
 * The rank-split window against a brute-force nearest-rank over a full
 * sort of the window, after every add (fill phase included), on streams
 * with heavy ties (values mod 50) and with wide values.
 */
TEST(LatencyTracker, MatchesFullSortNearestRank)
{
    for (const std::size_t window : {1, 2, 4, 7, 64, 512}) {
        for (const double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
            for (const sim::Duration modulus : {50, 1000000}) {
                rpc::LatencyTracker tracker(window, q);
                EXPECT_EQ(tracker.value(), 0);
                std::mt19937_64 rng(window * 1000 + modulus);
                std::deque<sim::Duration> recent;
                const std::size_t steps = 3 * window + 40;
                for (std::size_t i = 0; i < steps; ++i) {
                    const auto v = static_cast<sim::Duration>(
                        rng() % static_cast<std::uint64_t>(modulus));
                    tracker.add(v);
                    recent.push_back(v);
                    if (recent.size() > window)
                        recent.pop_front();
                    std::vector<sim::Duration> sorted(recent.begin(),
                                                      recent.end());
                    std::sort(sorted.begin(), sorted.end());
                    const auto rank = static_cast<std::size_t>(
                        q * static_cast<double>(sorted.size() - 1) + 0.5);
                    ASSERT_EQ(tracker.value(), sorted[rank])
                        << "window " << window << " q " << q << " modulus "
                        << modulus << " step " << i;
                    ASSERT_EQ(tracker.count(), sorted.size());
                }
                // count() saturates at the window; observed() does not.
                EXPECT_EQ(tracker.count(), window);
                EXPECT_EQ(tracker.observed(), steps);
            }
        }
    }
}

TEST(Hedge, DisabledProducesNoHedgeActivity)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 100);

    core::ServingSimulation sim(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                3, /*hedged=*/false));
    const auto stats = sim.replayOpenLoop(requests, 500.0);
    const auto h = sim.hedgeStats();
    EXPECT_GT(h.primary_rpcs, 0u);
    EXPECT_EQ(h.hedges, 0u);
    EXPECT_EQ(h.wins, 0u);
    EXPECT_EQ(h.wasted_busy_ns, 0.0);
    EXPECT_EQ(h.hedgeRate(), 0.0);
    for (const auto &s : stats) {
        EXPECT_EQ(s.hedges, 0);
        EXPECT_EQ(s.hedge_wins, 0);
        EXPECT_EQ(s.hedge_wasted_cpu_ns, 0.0);
    }
}

TEST(Hedge, SingleReplicaCannotHedge)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 100);

    core::ServingSimulation sim(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                1, /*hedged=*/true));
    sim.replayOpenLoop(requests, 500.0);
    EXPECT_EQ(sim.hedgeStats().hedges, 0u);
}

TEST(Hedge, OutcomeCountersAreConserved)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    core::ServingSimulation sim(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                3, /*hedged=*/true));
    const auto stats = sim.replayOpenLoop(requests, 1500.0);
    const auto h = sim.hedgeStats();
    ASSERT_GT(h.hedges, 0u);
    // Every launched backup ends exactly one way.
    EXPECT_EQ(h.wins + h.losses + h.cancelled, h.hedges);
    // The budget is a hard cap on the hedge rate.
    EXPECT_LE(h.hedgeRate(), 0.10 + 1e-9);
    // Per-request counters aggregate to the simulation totals.
    std::uint64_t hedges = 0, wins = 0;
    for (const auto &s : stats) {
        ASSERT_GE(s.hedges, 0);
        ASSERT_GE(s.hedge_wins, 0);
        EXPECT_GE(s.hedge_wasted_cpu_ns, -1.0); // rounding-safe
        hedges += static_cast<std::uint64_t>(s.hedges);
        wins += static_cast<std::uint64_t>(s.hedge_wins);
    }
    EXPECT_EQ(hedges, h.hedges);
    EXPECT_EQ(wins, h.wins);
}

TEST(Hedge, BatchedRidersNeverWinWithoutAHedge)
{
    // Regression: apportioning hedges and wins independently by item
    // share could hand a rider a win with zero hedges. Wins are now a
    // sub-share of the rider's assigned hedges.
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    core::ServingSimulation sim(
        spec, plan,
        sched::hedgeStudyConfig(rpc::LoadBalancePolicy::LeastOutstanding,
                                3, /*hedged=*/true));
    sched::BatcherConfig bc;
    bc.policy = sched::BatchPolicy::QueueAware;
    const auto stats =
        sched::runBatchedOpenLoop(sim, requests, 1500.0, bc);
    const auto h = sim.hedgeStats();
    ASSERT_GT(h.hedges, 0u);
    std::uint64_t hedges = 0, wins = 0;
    for (const auto &s : stats) {
        EXPECT_LE(s.hedge_wins, s.hedges) << "request " << s.id;
        hedges += static_cast<std::uint64_t>(s.hedges);
        wins += static_cast<std::uint64_t>(s.hedge_wins);
    }
    EXPECT_EQ(hedges, h.hedges);
    EXPECT_EQ(wins, h.wins);
}

TEST(Hedge, HedgedReplayIsDeterministic)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 200);

    const auto run = [&] {
        core::ServingSimulation sim(
            spec, plan,
            sched::hedgeStudyConfig(
                rpc::LoadBalancePolicy::LeastOutstanding, 3, true));
        return sim.replayOpenLoop(requests, 1500.0);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].e2e, b[i].e2e);
        EXPECT_EQ(a[i].hedges, b[i].hedges);
        EXPECT_EQ(a[i].hedge_wins, b[i].hedge_wins);
    }
}

/**
 * The headline property (tail-at-scale, Section VII of the paper's
 * scale-out argument): with transient stragglers, hedging with
 * tied-request cancellation improves the served P99 even with the sparse
 * tier at >= 90% mean measured utilization, across seeds.
 */
TEST(HedgeProperty, HedgedP99NoWorseAtHighUtilizationAcrossSeeds)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    // The sparse tier saturates at this rate, so a faster rate adds no
    // utilization: what keeps the mean below 100% is the replay's start
    // and drain, when replicas sit partly idle. 1,200 requests keep those
    // edges short: the mean over these seeds is ~0.93 (1,000 requests
    // sit right at the 0.90 line).
    const auto requests = testRequests(spec, 1200);
    const double qps = 2200.0;

    double util_sum = 0.0;
    int seeds = 0;
    for (const std::uint64_t seed :
         {0xd15c0ull, 0x5eedull, 0xfaceull, 0x1111ull, 0x4444ull}) {
        double p99_off = 0.0, p99_on = 0.0;
        for (const bool hedged : {false, true}) {
            core::ServingSimulation sim(
                spec, plan,
                sched::hedgeStudyConfig(
                    rpc::LoadBalancePolicy::LeastOutstanding, 3, hedged,
                    seed));
            const auto stats = sim.replayOpenLoop(requests, qps);
            const auto q = core::latencyQuantiles(stats);
            if (hedged) {
                p99_on = q.p99_ms;
            } else {
                p99_off = q.p99_ms;
                const double u = meanUtil(sim);
                EXPECT_GE(u, 0.85) << "seed=" << seed;
                util_sum += u;
                ++seeds;
            }
        }
        EXPECT_LE(p99_on, p99_off) << "seed=" << seed;
    }
    // "High load" means it: the tier runs at >= 90% mean utilization
    // over the studied seeds (each >= 85%).
    EXPECT_GE(util_sum / seeds, 0.90);
}

/**
 * Regression for the admission-control follow-up: a request shed
 * mid-flight must cancel its outstanding sparse RPCs — and once it is
 * shed, no further sparse busy-core time may be charged. One request,
 * slow gathers, a deadline that expires while the fan-out is on the
 * sparse tier: at shed time every outstanding attempt is cancelled
 * (queued ones release their slots, executing ones abort), so the
 * sparse-tier busy integral observed inside the completion callback
 * equals the final one exactly.
 */
TEST(ShedCancel, NoSparseBusyTimeChargedAfterMidFlightShed)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 1);

    auto cfg = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    cfg.lookup_base_ns = 4000.0; // slow gathers: RPCs outlast the deadline
    cfg.admission.deadline_ns = 2 * sim::kMillisecond;
    cfg.admission.cancel_in_flight = true;

    core::ServingSimulation sim(spec, plan, cfg);
    double busy_at_shed = -1.0;
    core::RequestStats shed_stats;
    sim.inject(requests[0], [&](const core::RequestStats &s) {
        shed_stats = s;
        busy_at_shed = sim.hedgeStats().total_busy_ns;
    });
    sim.engine().run();

    EXPECT_EQ(shed_stats.shed_reason, core::ShedReason::DeadlineExceeded);
    EXPECT_GT(shed_stats.rpc_count, 0); // the fan-out really was in flight
    EXPECT_GT(sim.shedCancelledRpcs(), 0u);
    // Shed-cancelled work is not hedge waste: with hedging disabled the
    // hedge counters stay all-zero even through mid-flight aborts — at
    // the simulation level AND in the emitted per-request stats (the
    // attempt pre-charges must be settled before the shed stats go out).
    EXPECT_EQ(sim.hedgeStats().wasted_busy_ns, 0.0);
    EXPECT_EQ(shed_stats.hedges, 0);
    EXPECT_NEAR(shed_stats.hedge_wasted_cpu_ns, 0.0, 1.0);
    // The settled cpu_* buckets hold only work actually consumed.
    EXPECT_GE(shed_stats.cpu_ops_ns, 0.0);
    EXPECT_GE(shed_stats.cpu_serde_ns, 0.0);
    EXPECT_GE(shed_stats.cpu_service_ns, 0.0);
    ASSERT_GE(busy_at_shed, 0.0);
    EXPECT_DOUBLE_EQ(busy_at_shed, sim.hedgeStats().total_busy_ns);
}

/**
 * Capacity view of the same fix: at overload with a strict deadline,
 * cancelling the sheds' outstanding RPCs reclaims real sparse-tier busy
 * time versus letting the doomed fan-outs run to completion.
 */
TEST(ShedCancel, CancellationReclaimsSparseBusyUnderOverload)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 300);

    double busy[2] = {0.0, 0.0};
    std::uint64_t cancelled[2] = {0, 0};
    int sheds_with_rpcs = 0;
    for (const bool cancel : {false, true}) {
        auto cfg = sched::sparseBoundStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 2);
        cfg.admission.deadline_ns = 15 * sim::kMillisecond;
        cfg.admission.cancel_in_flight = cancel;
        core::ServingSimulation sim(spec, plan, cfg);
        const auto stats = sim.replayOpenLoop(requests, 1800.0);
        ASSERT_EQ(stats.size(), requests.size());
        busy[cancel ? 1 : 0] = sim.hedgeStats().total_busy_ns;
        cancelled[cancel ? 1 : 0] = sim.shedCancelledRpcs();
        if (cancel) {
            for (const auto &s : stats)
                if (s.shed() && s.rpc_count > 0)
                    ++sheds_with_rpcs;
        }
    }
    EXPECT_EQ(cancelled[0], 0u);
    EXPECT_GT(cancelled[1], 0u);
    EXPECT_GT(sheds_with_rpcs, 0);
    // Reclaimed capacity must be substantial, not rounding noise.
    EXPECT_LT(busy[1], 0.8 * busy[0]);
}

/**
 * Regression for the span-closure inconsistency the observability layer
 * surfaced: hedged-loser attempts and attempts cancelled mid-execution
 * used to leave their spans dangling open. Every RPC attempt (primary,
 * hedge winner, hedge loser, wire-cancelled) must close: the trace ends
 * with zero open spans, one RpcAttempt span per launched attempt, and
 * every loser/cancelled attempt carries the matching flag with a real
 * end time.
 */
TEST(HedgeTrace, LoserAndCancelledAttemptsCloseTheirSpans)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 300);

    auto cfg = sched::hedgeStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
    obs::SpanTracer tracer;
    cfg.tracer = &tracer;
    core::ServingSimulation sim(spec, plan, cfg);
    sim.replayOpenLoop(requests, 1500.0);
    const auto h = sim.hedgeStats();
    ASSERT_GT(h.hedges, 0u);

    EXPECT_EQ(tracer.openCount(), 0u);
    const auto rep = obs::checkConservation(tracer.spans());
    EXPECT_TRUE(rep.ok(requests.size()))
        << "roots=" << rep.root_spans << " open=" << rep.open_spans
        << " violations=" << rep.nesting_violations;

    std::uint64_t attempts = 0, hedge_attempts = 0, losers = 0;
    for (const auto &s : tracer.spans()) {
        EXPECT_FALSE(s.open()) << "span " << s.id << " kind "
                               << obs::spanKindName(s.kind);
        if (s.kind != obs::SpanKind::RpcAttempt)
            continue;
        ++attempts;
        if ((s.flags & obs::kFlagHedge) != 0)
            ++hedge_attempts;
        if ((s.flags & obs::kFlagLoser) != 0) {
            ++losers;
            EXPECT_GE(s.end, s.begin);
        }
    }
    // One attempt span per launched attempt: primaries + backups.
    EXPECT_EQ(attempts, h.primary_rpcs + h.hedges);
    EXPECT_EQ(hedge_attempts, h.hedges);
    // Races were decided, so somebody lost (wins imply losers).
    if (h.wins > 0) {
        EXPECT_GT(losers, 0u);
    }
}

/**
 * Same closure contract under mid-flight shed cancellation: the
 * poisoned fan-out's attempts close flagged Cancelled, and the trace
 * still conserves (the shed root closes flagged Shed).
 */
TEST(HedgeTrace, MidFlightShedClosesCancelledAttemptSpans)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 300);

    auto cfg = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    cfg.admission.deadline_ns = 15 * sim::kMillisecond;
    cfg.admission.cancel_in_flight = true;
    obs::SpanTracer tracer;
    cfg.tracer = &tracer;
    core::ServingSimulation sim(spec, plan, cfg);
    const auto stats = sim.replayOpenLoop(requests, 1800.0);
    ASSERT_GT(sim.shedCancelledRpcs(), 0u);

    EXPECT_EQ(tracer.openCount(), 0u);
    const auto rep = obs::checkConservation(tracer.spans());
    EXPECT_TRUE(rep.ok(requests.size()))
        << "roots=" << rep.root_spans << " open=" << rep.open_spans
        << " violations=" << rep.nesting_violations;
    EXPECT_GT(rep.cancelled_spans, 0u);

    // Shed roots carry the Shed flag; their count matches the stats.
    std::uint64_t shed_roots = 0, cancelled_closed = 0;
    for (const auto &s : tracer.spans()) {
        if (s.kind == obs::SpanKind::Request &&
            (s.flags & obs::kFlagShed) != 0)
            ++shed_roots;
        if ((s.flags & obs::kFlagCancelled) != 0) {
            EXPECT_FALSE(s.open());
            ++cancelled_closed;
        }
    }
    std::uint64_t shed_requests = 0;
    for (const auto &s : stats)
        shed_requests += s.shed() ? 1 : 0;
    EXPECT_EQ(shed_roots, shed_requests);
    EXPECT_GT(cancelled_closed, 0u);
}

/** Wasted duplicate work stays below the configured budget at low load. */
TEST(HedgeProperty, WastedWorkBoundedByBudgetAtLowLoad)
{
    const auto spec = model::makeDrm2();
    const auto plan = testPlan(spec);
    const auto requests = testRequests(spec, 1000);

    for (const std::uint64_t seed :
         {0xd15c0ull, 0x5eedull, 0xfaceull, 0x1111ull, 0x2222ull}) {
        auto cfg = sched::hedgeStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 3, true, seed);
        core::ServingSimulation sim(spec, plan, cfg);
        sim.replayOpenLoop(requests, 300.0);
        const auto h = sim.hedgeStats();
        ASSERT_GT(h.hedges, 0u) << "seed=" << seed;
        EXPECT_LE(h.wastedFraction(), cfg.hedge.max_hedge_fraction)
            << "seed=" << seed;
    }
}

} // namespace
