/**
 * @file
 * Tail-based trace sampling tests:
 *
 *  - TraceSampler keep/recycle semantics driven through a SpanTracer:
 *    flagged and tail keeps, deterministic reservoir across reruns,
 *    budget eviction ordered by keep class, bounded arena recycling.
 *  - The RollingHistogram dropped_stale counter.
 *  - Perfetto flow events: a hedged replay's chrome trace links each
 *    hedge attempt back to its primary with s/f flow events.
 *  - FleetSim trace sampling: ledger AND telemetry fingerprints are
 *    byte-identical with sampling on/off, per-epoch summaries respect
 *    the byte budget and rerun identically (dropped_stale included),
 *    and chaos scorecards pick up blast-epoch exemplar request ids.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "fleet/fleet_sim.h"
#include "model/generators.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/histogram.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/capacity_search.h"
#include "workload/diurnal.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/** Close one synthetic root span of duration @p e2e_ns. */
void
closeRoot(obs::SpanTracer &tracer, std::uint64_t request_id,
          sim::Duration e2e_ns, std::uint8_t root_flags = obs::kFlagNone)
{
    const sim::SimTime t0 = static_cast<sim::SimTime>(request_id) * 1000000;
    const auto root = tracer.begin(request_id, obs::SpanKind::Request,
                                   obs::kNoSpan, t0);
    const auto child = tracer.begin(request_id, obs::SpanKind::QueueWait,
                                    root, t0);
    tracer.end(child, t0 + e2e_ns / 2);
    tracer.end(root, t0 + e2e_ns, root_flags);
}

/**
 * A latency feed holding `n` samples of `ns` each, in a window far longer
 * than any test run, so every sample stays live.
 */
std::unique_ptr<obs::RollingHistogram>
constantFeed(int n, std::int64_t ns)
{
    obs::WindowConfig wc;
    wc.horizon_s = 1e6;
    auto feed = std::make_unique<obs::RollingHistogram>(wc);
    for (int i = 0; i < n; ++i)
        feed->observe(0.0, ns);
    return feed;
}

/** The tail threshold a sampler reads from `feed`. */
sim::Duration
tailThresholdOf(const obs::RollingHistogram &feed)
{
    return static_cast<sim::Duration>(
        feed.valueAtQuantile(0.0, obs::TraceSampler::kTailQuantile));
}

// ---------------------------------------------------------------------------
// TraceSampler.
// ---------------------------------------------------------------------------

TEST(TraceSampler, FlaggedRootsAlwaysKept)
{
    obs::SamplerConfig cfg;
    cfg.reservoir_size = 0; // isolate the flag trigger
    obs::TraceSampler sampler(cfg);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    closeRoot(tracer, 1, 1000, obs::kFlagShed);
    closeRoot(tracer, 2, 1000, obs::kFlagHedge);
    closeRoot(tracer, 3, 1000); // unflagged -> recycled

    EXPECT_TRUE(sampler.isRetained(1));
    EXPECT_TRUE(sampler.isRetained(2));
    EXPECT_FALSE(sampler.isRetained(3));
    EXPECT_EQ(sampler.stats().kept_flagged, 2u);
    EXPECT_EQ(sampler.stats().recycled, 1u);
    for (const auto &rt : sampler.retained())
        EXPECT_EQ(rt.keep_class, obs::KeepClass::Flagged);
}

TEST(TraceSampler, FeedTailThresholdKeepsSlowRoots)
{
    const auto feed = constantFeed(200, 5000);
    const sim::Duration threshold = tailThresholdOf(*feed);
    ASSERT_GT(threshold, 1);
    obs::SamplerConfig cfg;
    cfg.reservoir_size = 0;
    cfg.latency_feed = feed.get();
    obs::TraceSampler sampler(cfg);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    closeRoot(tracer, 10, threshold - 1);
    closeRoot(tracer, 11, threshold);
    closeRoot(tracer, 12, threshold + 4000);

    EXPECT_FALSE(sampler.isRetained(10));
    EXPECT_TRUE(sampler.isRetained(11));
    EXPECT_TRUE(sampler.isRetained(12));
    EXPECT_EQ(sampler.stats().kept_tail, 2u);
}

TEST(TraceSampler, RollingQuantileFeedDrivesTheTailThreshold)
{
    // A latency feed whose slowest 10% sit at 100 us puts the
    // kTailQuantile threshold inside that population: a root 50x the
    // bulk is still not a tail keep, one past the slow population is.
    obs::WindowConfig wc;
    wc.horizon_s = 1e6;
    obs::RollingHistogram feed(wc);
    for (int i = 0; i < 200; ++i)
        feed.observe(1.0, i < 180 ? 1000.0 : 100000.0);

    obs::SamplerConfig cfg;
    cfg.reservoir_size = 0;
    obs::TraceSampler sampler(cfg);
    sampler.setLatencyFeed(&feed);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    closeRoot(tracer, 20, 1000);
    closeRoot(tracer, 21, 50000);
    closeRoot(tracer, 22, 200000);
    EXPECT_FALSE(sampler.isRetained(20));
    EXPECT_FALSE(sampler.isRetained(21));
    EXPECT_TRUE(sampler.isRetained(22));
}

TEST(TraceSampler, WithoutFeedSamplesNothingIsATailKeep)
{
    obs::SamplerConfig cfg;
    cfg.reservoir_size = 0;
    obs::TraceSampler sampler(cfg);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);
    closeRoot(tracer, 30, sim::kSecond); // no feed attached

    const auto empty = constantFeed(0, 0);
    sampler.setLatencyFeed(empty.get());
    closeRoot(tracer, 31, sim::kSecond); // a feed with no samples

    EXPECT_FALSE(sampler.isRetained(30));
    EXPECT_FALSE(sampler.isRetained(31));
    EXPECT_EQ(sampler.stats().kept_tail, 0u);
    EXPECT_EQ(sampler.stats().recycled, 2u);
}

TEST(TraceSampler, ReservoirIsDeterministicAcrossReruns)
{
    const auto run = [](std::uint64_t seed) {
        obs::SamplerConfig cfg;
        cfg.seed = seed;
        cfg.reservoir_size = 8;
        obs::TraceSampler sampler(cfg);
        obs::SpanTracer tracer;
        tracer.setSampler(&sampler);
        for (std::uint64_t id = 0; id < 200; ++id)
            closeRoot(tracer, id, 1000);
        std::set<std::uint64_t> kept;
        for (const auto &rt : sampler.retained())
            kept.insert(rt.request_id);
        return kept;
    };
    const auto a = run(0x5eed);
    const auto b = run(0x5eed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 8u);
    // A different seed picks a different reservoir (overwhelmingly
    // likely for 8-of-200; equality would indicate a dead seed path).
    EXPECT_NE(a, run(0xf00d));
}

TEST(TraceSampler, BudgetEvictsLowerClassesFirstAndNeverHigher)
{
    const auto feed = constantFeed(200, 50000); // tail: ~50 us and up
    obs::SamplerConfig cfg;
    cfg.reservoir_size = 64;
    cfg.latency_feed = feed.get();
    // Room for only a handful of two-span trees.
    cfg.retained_byte_budget = 6 * sizeof(obs::SpanRecord);
    obs::TraceSampler sampler(cfg);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    // Fill the budget with reservoir keeps...
    for (std::uint64_t id = 0; id < 3; ++id)
        closeRoot(tracer, id, 1000);
    ASSERT_EQ(sampler.retained().size(), 3u);
    // ...then flagged arrivals evict them.
    closeRoot(tracer, 100, 1000, obs::kFlagShed);
    closeRoot(tracer, 101, 1000, obs::kFlagShed);
    closeRoot(tracer, 102, 1000, obs::kFlagShed);
    EXPECT_TRUE(sampler.isRetained(100));
    EXPECT_TRUE(sampler.isRetained(101));
    EXPECT_TRUE(sampler.isRetained(102));
    EXPECT_GE(sampler.stats().budget_evictions, 3u);

    // A tail keep cannot evict the flagged occupants: rejected.
    const auto rejected_before = sampler.stats().budget_rejected;
    closeRoot(tracer, 200, 90000);
    EXPECT_FALSE(sampler.isRetained(200));
    EXPECT_GT(sampler.stats().budget_rejected, rejected_before);
    for (const auto &rt : sampler.retained())
        EXPECT_EQ(rt.keep_class, obs::KeepClass::Flagged);
    EXPECT_LE(sampler.retainedBytes(), cfg.retained_byte_budget);
}

TEST(TraceSampler, ArenaRecyclesSlotsInsteadOfGrowing)
{
    obs::SamplerConfig cfg;
    cfg.reservoir_size = 4;
    obs::TraceSampler sampler(cfg);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    // Sequential roots: at most one tree in flight, so the arena
    // stays O(1) no matter how many roots close.
    for (std::uint64_t id = 0; id < 500; ++id)
        closeRoot(tracer, id, 1000);
    EXPECT_EQ(sampler.stats().roots_closed, 500u);
    EXPECT_LE(sampler.arenaSlots(), 4u);
    // Flattened retained spans rebase ids into one consistent vector,
    // which is what the tracer shows.
    const auto flat = sampler.flattenedSpans();
    EXPECT_EQ(flat.size(), sampler.retained().size() * 2);
    EXPECT_EQ(tracer.spans().size(), flat.size());
    const auto rep = obs::checkConservation(flat);
    EXPECT_EQ(rep.open_spans, 0u);
    EXPECT_EQ(rep.nesting_violations, 0u);
}

// More trees open at once than 16 slot bits could address. Root i spans
// [i, n + i + 1] and its one child [n + i, n + i + 1], outside every
// earlier root, so a handle aliased onto another request's tree shows up
// as a nesting violation (and as a tree with the wrong span count).
TEST(TraceSampler, MoreThan65536ConcurrentTreesPassConservation)
{
    constexpr std::uint64_t kTrees = (std::uint64_t{1} << 16) + 4096;
    // Every root spans kTrees + 1 ns, far past the feed's ~1 us tail.
    const auto feed = constantFeed(200, 1000);
    obs::SamplerConfig keep_tail;
    keep_tail.reservoir_size = 0;
    keep_tail.latency_feed = feed.get();
    keep_tail.retained_byte_budget = SIZE_MAX;
    obs::TraceSampler sampler(keep_tail);
    obs::SpanTracer sampled, keep_all;
    sampled.setSampler(&sampler);

    for (obs::SpanTracer *tracer : {&sampled, &keep_all}) {
        std::vector<obs::SpanId> roots;
        roots.reserve(kTrees);
        for (std::uint64_t i = 0; i < kTrees; ++i)
            roots.push_back(tracer->begin(i, obs::SpanKind::Request,
                                          obs::kNoSpan,
                                          static_cast<sim::SimTime>(i)));
        EXPECT_EQ(tracer->sampler()->arenaSlots(), kTrees);
        for (std::uint64_t i = 0; i < kTrees; ++i) {
            const auto t = static_cast<sim::SimTime>(kTrees + i);
            tracer->record(i, obs::SpanKind::QueueWait, roots[i], t, t + 1);
            tracer->end(roots[i], t + 1);
        }

        EXPECT_EQ(tracer->openCount(), 0u);
        EXPECT_EQ(tracer->sampler()->stats().stale_span_drops, 0u);
        const auto rep = obs::checkConservation(tracer->spans());
        EXPECT_TRUE(rep.ok(kTrees))
            << rep.root_spans << " roots, " << rep.open_spans << " open, "
            << rep.nesting_violations << " nesting violations";
        EXPECT_EQ(rep.total_spans, 2 * kTrees);
        const auto &retained = tracer->sampler()->retained();
        ASSERT_EQ(retained.size(), kTrees);
        for (std::uint64_t i = 0; i < kTrees; ++i) {
            ASSERT_EQ(retained[i].spans.size(), 2u) << i;
            EXPECT_EQ(retained[i].spans[1].request_id, i);
        }
    }
    EXPECT_EQ(sampled.sampler(), &sampler);
    EXPECT_EQ(sampler.stats().kept_tail, kTrees);
}

// A slot sealed at the last generation its handle field can carry is
// retired, not wrapped: no handle into it ever resolves again, and the
// next tree takes a fresh slot.
TEST(TraceSampler, ExhaustedGenerationRetiresItsSlot)
{
    obs::SamplerConfig recycle_all;
    recycle_all.reservoir_size = 0;
    obs::TraceSampler sampler(recycle_all);
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);

    const auto first = tracer.begin(0, obs::SpanKind::Request, obs::kNoSpan, 0);
    const auto first_child =
        tracer.begin(0, obs::SpanKind::QueueWait, first, 0);
    tracer.end(first_child, 1);
    tracer.end(first, 1);
    obs::SpanId last = first;
    for (std::uint64_t i = 1; i <= obs::TraceSampler::kMaxGeneration; ++i) {
        last = tracer.begin(i, obs::SpanKind::Request, obs::kNoSpan, 0);
        tracer.end(last, 1);
    }
    EXPECT_EQ(sampler.arenaSlots(), 1u); // every tree reused slot 0
    EXPECT_EQ(sampler.stats().recycled,
              std::uint64_t{obs::TraceSampler::kMaxGeneration} + 1);

    // Slot 0 is retired: the next root opens slot 1, and handles from
    // slot 0's first and last tenants are stale, not aliased.
    const auto next =
        tracer.begin(1u << 20, obs::SpanKind::Request, obs::kNoSpan, 0);
    EXPECT_EQ(sampler.arenaSlots(), 2u);
    EXPECT_EQ(tracer.begin(0, obs::SpanKind::QueueWait, first, 0),
              obs::kNoSpan);
    EXPECT_EQ(tracer.begin(0, obs::SpanKind::QueueWait, last, 0),
              obs::kNoSpan);
    EXPECT_EQ(sampler.stats().stale_span_drops, 2u);
    tracer.end(next, 1);
    EXPECT_EQ(tracer.openCount(), 0u);
}

// The tree-local index field holds 2^20 - 1 spans; the next begin() in
// that tree throws instead of masking its index into a sibling's.
TEST(SpanTracer, TreeLocalIndexOverflowThrows)
{
    obs::SpanTracer tracer;
    const auto root = tracer.begin(7, obs::SpanKind::Request, obs::kNoSpan, 0);
    constexpr std::uint64_t kLocalMax = (std::uint64_t{1} << 20) - 1;
    for (std::uint64_t i = 1; i < kLocalMax; ++i)
        ASSERT_NE(tracer.begin(7, obs::SpanKind::QueueWait, root, 0),
                  obs::kNoSpan);
    EXPECT_THROW(tracer.begin(7, obs::SpanKind::QueueWait, root, 0),
                 std::length_error);
    EXPECT_EQ(tracer.openCount(), kLocalMax);
}

// ---------------------------------------------------------------------------
// RollingHistogram.
// ---------------------------------------------------------------------------

TEST(RollingHistogram, CountsDroppedStaleSamples)
{
    obs::WindowConfig wc;
    wc.horizon_s = 10.0;
    wc.buckets = 5;
    obs::RollingHistogram h(wc);
    h.observe(100.0, 1.0);
    EXPECT_EQ(h.droppedStale(), 0u);
    // Same ring position, more than a full horizon older: dropped and
    // counted, not silently folded into the live bucket.
    h.observe(100.0 - wc.horizon_s, 2.0);
    EXPECT_EQ(h.droppedStale(), 1u);
}

// ---------------------------------------------------------------------------
// Perfetto flow events (hedge race linking).
// ---------------------------------------------------------------------------

TEST(ChromeTrace, HedgeFlowEventsLinkPrimaryToBackup)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto cfg = sched::hedgeStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
    obs::SpanTracer tracer;
    cfg.tracer = &tracer;
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{0xbeef});
    core::ServingSimulation sim(spec, plan, cfg);
    const auto stats = sim.replayOpenLoop(gen.generate(200), 1500.0);

    std::int64_t hedges = 0;
    for (const auto &s : stats)
        hedges += s.hedges;
    ASSERT_GT(hedges, 0) << "workload must actually hedge";

    std::size_t hedge_attempts = 0;
    for (const auto &s : tracer.spans())
        if (s.kind == obs::SpanKind::RpcAttempt &&
            (s.flags & obs::kFlagHedge) != 0 && s.end != obs::kOpenEnd)
            ++hedge_attempts;
    ASSERT_GT(hedge_attempts, 0u);

    const std::string json = obs::chromeTraceJson(tracer.spans());
    const auto occurrences = [&json](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = json.find(needle);
             pos != std::string::npos; pos = json.find(needle, pos + 1))
            ++n;
        return n;
    };
    // One s/f flow pair per closed hedge attempt, named hedge-race.
    EXPECT_EQ(occurrences("\"hedge-race\""), 2 * hedge_attempts);
    EXPECT_EQ(occurrences("\"ph\":\"s\""), hedge_attempts);
    EXPECT_EQ(occurrences("\"ph\":\"f\""), hedge_attempts);
}

// ---------------------------------------------------------------------------
// FleetSim trace sampling.
// ---------------------------------------------------------------------------

namespace fleetcfg {

core::ServingConfig
serving()
{
    auto cfg = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    cfg.result_cache.enabled = true;
    return cfg;
}

workload::DiurnalLoadConfig
load()
{
    workload::DiurnalLoadConfig dl;
    dl.base_qps = 300.0;
    dl.amplitude = 0.4;
    dl.epochs_per_day = 12;
    return dl;
}

fleet::FleetConfig
fleet(int epochs)
{
    fleet::FleetConfig fc;
    fc.slo.p99_ms = 60.0;
    fc.epochs = epochs;
    fc.requests_per_epoch = 140;
    return fc;
}

} // namespace fleetcfg

TEST(FleetTraceSampling, SamplingIsFingerprintInvisible)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, fleetcfg::load());

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;

    fleet::FleetSim blind_sim(spec, plan, fleetcfg::serving(), load,
                              fleetcfg::fleet(6));
    fleet::ReactiveAutoscaler a({4, 4, 4, 4}, rc);
    const auto blind = blind_sim.run(a);
    EXPECT_TRUE(blind.telemetry.traces.empty());

    auto fc = fleetcfg::fleet(6);
    fc.trace_sampling.enabled = true;
    fleet::FleetSim sampled_sim(spec, plan, fleetcfg::serving(), load, fc);
    fleet::ReactiveAutoscaler b({4, 4, 4, 4}, rc);
    const auto sampled = sampled_sim.run(b);

    // Observation purity at both ledgers.
    EXPECT_EQ(blind.fingerprint(), sampled.fingerprint());
    EXPECT_EQ(blind.telemetry.fingerprint(),
              sampled.telemetry.fingerprint());

    // One summary per epoch, each within the per-epoch byte budget.
    ASSERT_EQ(sampled.telemetry.traces.size(), sampled.epochs.size());
    std::uint64_t retained_total = 0;
    for (const auto &ts : sampled.telemetry.traces) {
        EXPECT_GT(ts.roots_closed, 0u);
        EXPECT_LE(ts.retained_bytes,
                  fleet::kTracePerEpochByteBudget);
        EXPECT_LE(ts.exemplars.size(),
                  fleet::kTraceScenarioExemplars);
        retained_total += ts.retained;
        for (const auto &ex : ts.exemplars)
            EXPECT_NE(ex.keep_class, obs::KeepClass::Recycled);
    }
    EXPECT_GT(retained_total, 0u);

    // Deterministic: rerun produces identical trace summaries.
    fleet::FleetSim rerun_sim(spec, plan, fleetcfg::serving(), load, fc);
    fleet::ReactiveAutoscaler c({4, 4, 4, 4}, rc);
    const auto rerun = rerun_sim.run(c);
    ASSERT_EQ(rerun.telemetry.traces.size(),
              sampled.telemetry.traces.size());
    for (std::size_t e = 0; e < rerun.telemetry.traces.size(); ++e) {
        const auto &x = sampled.telemetry.traces[e];
        const auto &y = rerun.telemetry.traces[e];
        EXPECT_EQ(x.retained, y.retained);
        EXPECT_EQ(x.dropped_stale, y.dropped_stale);
        EXPECT_EQ(x.retained_bytes, y.retained_bytes);
        ASSERT_EQ(x.exemplars.size(), y.exemplars.size());
        for (std::size_t i = 0; i < x.exemplars.size(); ++i)
            EXPECT_EQ(x.exemplars[i].request_id,
                      y.exemplars[i].request_id);
    }
}

TEST(FleetTraceSampling, ChaosScorecardsCarryBlastEpochExemplars)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, fleetcfg::load());

    auto fc = fleetcfg::fleet(6);
    fc.trace_sampling.enabled = true;
    fc.faults.crashReplica(/*shard=*/0, /*replica=*/0,
                           /*start_epoch=*/2, /*end_epoch=*/4);

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;
    fleet::FleetSim sim(spec, plan, fleetcfg::serving(), load, fc);
    fleet::ReactiveAutoscaler a({4, 4, 4, 4}, rc);
    const auto stats = sim.run(a);

    ASSERT_EQ(stats.telemetry.scenarios.size(), 1u);
    const auto &outcome = stats.telemetry.scenarios[0];
    // The blast epoch was identified inside the active window and its
    // retained exemplar request ids attached for investigation.
    ASSERT_GE(outcome.exemplar_epoch, 2);
    EXPECT_LT(outcome.exemplar_epoch, 4);
    EXPECT_FALSE(outcome.exemplar_requests.empty());
    EXPECT_LE(outcome.exemplar_requests.size(),
              fleet::kTraceScenarioExemplars);
}

} // namespace
