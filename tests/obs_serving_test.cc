/**
 * @file
 * Integration tests of the observability layer against the serving
 * engine: span conservation through the full lifecycle (hedging,
 * stragglers, admission cancel, result cache), critical-path totals
 * matching the reported E2E exactly, Chrome trace export of a real
 * run, engine self-profiling counters (and the pinned profile of one
 * hedged, result-cached replay), and the batcher's coalescing counters.
 */
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <unordered_map>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/histogram.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/batcher.h"
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

/**
 * The kitchen-sink configuration: hedging with stragglers, strict
 * admission with in-flight cancellation, and the pooled-result cache —
 * every span-emitting code path is live at once.
 */
core::ServingConfig
kitchenSinkConfig(obs::SpanTracer *tracer)
{
    auto cfg = sched::hedgeStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
    cfg.admission.max_main_queue = 64;
    cfg.admission.deadline_ns = 12 * sim::kMillisecond;
    cfg.admission.cancel_in_flight = true;
    cfg.result_cache.enabled = true;
    cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
    cfg.tracer = tracer;
    return cfg;
}

TEST(ObsServing, KitchenSinkRunConservesSpans)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 200);

    obs::SpanTracer tracer;
    core::ServingSimulation sim(spec, plan, kitchenSinkConfig(&tracer));
    const auto stats = sim.replayOpenLoop(requests, 1500.0);
    ASSERT_EQ(stats.size(), requests.size());

    EXPECT_EQ(tracer.openCount(), 0u);
    const auto rep = obs::checkConservation(tracer.spans());
    EXPECT_TRUE(rep.ok(requests.size()))
        << "roots=" << rep.root_spans << " open=" << rep.open_spans
        << " violations=" << rep.nesting_violations;
}

TEST(ObsServing, CriticalPathTotalEqualsReportedE2E)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 200);

    obs::SpanTracer tracer;
    core::ServingSimulation sim(spec, plan, kitchenSinkConfig(&tracer));
    const auto stats = sim.replayOpenLoop(requests, 1500.0);

    const auto paths = obs::criticalPaths(tracer.spans());
    ASSERT_FALSE(paths.empty());
    std::unordered_map<std::uint64_t, sim::Duration> e2e;
    std::size_t served = 0;
    for (const auto &s : stats) {
        if (s.shed())
            continue;
        e2e[s.id] = s.e2e;
        ++served;
    }
    // Shed roots are excluded from path extraction, served ones are not.
    EXPECT_EQ(paths.size(), served);
    for (const auto &p : paths) {
        const auto it = e2e.find(p.request_id);
        ASSERT_NE(it, e2e.end()) << "request " << p.request_id;
        EXPECT_EQ(p.total, it->second) << "request " << p.request_id;
        // The segment partition makes buckets sum to e2e exactly.
        sim::Duration sum = 0;
        for (std::size_t b = 0; b < obs::kPathBucketCount; ++b)
            sum += p.bucket_ns[b];
        EXPECT_EQ(sum, p.total) << "request " << p.request_id;
    }

    const auto profile = obs::profilePaths(paths);
    EXPECT_EQ(profile.requests, served);
    // A remote fan-out workload must attribute real time to the
    // compute and queue buckets (shares are of summed e2e).
    EXPECT_GT(profile.bucketShare(obs::PathBucket::Compute), 0.0);
}

TEST(ObsServing, ChromeTraceExportOfRealRunIsWellFormed)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 50);

    obs::SpanTracer tracer;
    core::ServingSimulation sim(spec, plan, kitchenSinkConfig(&tracer));
    sim.replayOpenLoop(requests, 1500.0);

    const std::string json = obs::chromeTraceJson(tracer.spans());
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']'); // trailing newline after ]
    // Balanced braces is a cheap well-formedness proxy the exporter
    // can't pass by accident (every event object must close).
    std::int64_t depth = 0;
    std::int64_t min_depth = 0;
    for (const char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        min_depth = std::min(min_depth, depth);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(min_depth, 0);
    // The lifecycle kinds a fan-out run must emit...
    for (const char *needle :
         {"\"request\"", "\"rpc_attempt\"", "\"wire_out\"",
          "\"remote_compute\"", "\"wire_back\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    // ...and every closed span's kind must reach the export under its
    // canonical name (QueueWait etc. appear only under contention, so
    // the obligation is derived from the trace, not hard-coded).
    for (const auto &s : tracer.spans()) {
        if (s.open())
            continue;
        const std::string name =
            std::string("\"") + obs::spanKindName(s.kind) + "\"";
        EXPECT_NE(json.find(name), std::string::npos) << name;
    }
}

TEST(ObsServing, EngineProfileCountsEveryEventExactlyOnce)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 100);

    core::ServingSimulation sim(spec, plan, kitchenSinkConfig(nullptr));
    sim.engine().enableProfiling(true);
    sim.replayOpenLoop(requests, 1500.0);

    const auto &prof = sim.engine().profile();
    EXPECT_GT(prof.executed, 0u);
    EXPECT_EQ(prof.executed, sim.engine().executed());
    // Nothing left behind: scheduled events either ran or are pending.
    EXPECT_EQ(prof.scheduled, prof.executed + sim.engine().pending());
    EXPECT_GT(prof.peak_pending, 0u);
    // Tag partition: every executed event carries exactly one tag.
    std::uint64_t tagged = 0;
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
        tagged += prof.tag_events[t];
    EXPECT_EQ(tagged, prof.executed);
    // The serving engine tags its hot paths; the big three must fire.
    EXPECT_GT(prof.tag_events[sim::kEvMainCompute], 0u);
    EXPECT_GT(prof.tag_events[sim::kEvSparseCompute], 0u);
    EXPECT_GT(prof.tag_events[sim::kEvWire], 0u);
    EXPECT_GT(prof.tag_events[sim::kEvGrant], 0u);
    EXPECT_GT(prof.tag_events[sim::kEvDriver], 0u);
    // Profiling was on, so callbacks were wall-clocked.
    EXPECT_GE(prof.wall_ns, 0);
    std::int64_t tag_wall = 0;
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
        tag_wall += prof.tag_wall_ns[t];
    EXPECT_EQ(tag_wall, prof.wall_ns);
}

/**
 * One canonical replay, pinned: DRM2 capacity-balanced over 4 shards,
 * hedged with the pooled-result cache, 600 requests of the bench
 * request stream at 1500 qps. The same schedule runs untraced with
 * profiling, traced, and traced with the tail sampler and a rolling
 * latency feed, and every deterministic count each run produces is
 * pinned: events per tag, the event set's high-water mark, spans,
 * retained traces and bytes, and the per-request critical-path
 * buckets. Any change to the schedule moves one of them.
 */
TEST(ObsServing, HedgedCachedReplayProfileIsPinned)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    workload::GeneratorConfig gc;
    gc.seed = 0xbeef ^ std::hash<std::string>{}(spec.name);
    const auto requests =
        workload::RequestGenerator(spec, gc).generate(600);
    const auto config = [](obs::SpanTracer *tracer,
                           obs::RollingHistogram *feed) {
        auto cfg = sched::hedgeStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 3, /*hedged=*/true);
        cfg.result_cache.enabled = true;
        cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
        cfg.tracer = tracer;
        cfg.latency_feed = feed;
        return cfg;
    };

    core::ServingSimulation untraced(spec, plan, config(nullptr, nullptr));
    untraced.engine().enableProfiling(true);
    untraced.replayOpenLoop(requests, 1500.0);
    const auto &prof = untraced.engine().profile();
    EXPECT_EQ(prof.executed, 48809u);
    EXPECT_EQ(prof.scheduled, 48809u);
    EXPECT_EQ(prof.peak_pending, 466u);
    const std::array<std::uint64_t, sim::kEvTagCount> tag_events = {
        0, 5940, 9725, 19607, 9392, 3545, 600};
    for (std::size_t t = 0; t < sim::kEvTagCount; ++t)
        EXPECT_EQ(prof.tag_events[t], tag_events[t])
            << sim::eventTagName(static_cast<sim::EventTag>(t));

    obs::SpanTracer tracer;
    core::ServingSimulation traced(spec, plan, config(&tracer, nullptr));
    traced.replayOpenLoop(requests, 1500.0);
    EXPECT_EQ(tracer.spans().size(), 79094u);
    EXPECT_EQ(tracer.allocations(), 79094u);
    const auto profile =
        obs::profilePaths(obs::criticalPaths(tracer.spans()));
    EXPECT_EQ(profile.requests, 600u);
    // Summed over the 600 paths; the per-request means are these / 600.
    const std::array<sim::Duration, obs::kPathBucketCount> bucket_ns = {
        2376615983, 7756693579, 134290718, 419645894, 515366137, 0};
    for (std::size_t b = 0; b < obs::kPathBucketCount; ++b)
        EXPECT_EQ(profile.bucket_ns[b], bucket_ns[b])
            << obs::pathBucketName(static_cast<obs::PathBucket>(b));

    obs::SamplerConfig sampler_cfg;
    sampler_cfg.reservoir_size = 16;
    sampler_cfg.retained_byte_budget = 512u << 10;
    obs::TraceSampler sampler(sampler_cfg);
    obs::SpanTracer sampled_tracer;
    sampled_tracer.setSampler(&sampler);
    obs::WindowConfig feed_cfg;
    feed_cfg.horizon_s = 1e6;
    obs::RollingHistogram feed(feed_cfg);
    sampler.setLatencyFeed(&feed);
    core::ServingSimulation sampled(spec, plan,
                                    config(&sampled_tracer, &feed));
    sampled.replayOpenLoop(requests, 1500.0);
    EXPECT_EQ(sampler.retained().size(), 56u);
    EXPECT_EQ(sampler.retainedBytes(), 504288u);
    EXPECT_EQ(sampler.stats().recycled, 463u);
    EXPECT_EQ(sampler.arenaSlots(), 59u);
}

/**
 * The per-request stats carry the batcher's coalescing counters: a
 * batch of k riders hands each rider coalesced == k, so the sum of
 * 1/coalesced counts the injected batches and the riders per batch
 * average to meanCoalesced().
 */
TEST(ObsServing, BatcherCountersFollowFromRequestStats)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests = testRequests(spec, 150);

    core::ServingSimulation sim(spec, plan, kitchenSinkConfig(nullptr));
    const sched::BatcherConfig bc; // TimeoutCapped, 2 ms hold
    sched::DynamicBatcher batcher(sim, bc);
    stats::Rng arrivals(0xa881);
    sim::Engine &engine = sim.engine();
    sim::SimTime t = engine.now();
    for (const auto &req : requests) {
        t += static_cast<sim::Duration>(arrivals.exponential(1500.0) *
                                        static_cast<double>(sim::kSecond));
        engine.scheduleAt(t, [&batcher, &req] { batcher.offer(req); });
    }
    engine.scheduleAt(t, [&batcher] { batcher.flush(); });
    engine.run();
    sim.takeResults();
    const auto stats = batcher.takeStats();
    ASSERT_EQ(stats.size(), requests.size());

    ASSERT_GT(batcher.batchesInjected(), 0u);
    double batches = 0.0;
    for (const auto &st : stats) {
        ASSERT_GE(st.coalesced, 1);
        EXPECT_GE(st.batch_wait, 0);
        EXPECT_LE(st.batch_wait, bc.max_queue_delay_ns);
        batches += 1.0 / static_cast<double>(st.coalesced);
    }
    EXPECT_NEAR(batches, static_cast<double>(batcher.batchesInjected()),
                1e-9);
    EXPECT_NEAR(static_cast<double>(stats.size()) /
                    static_cast<double>(batcher.batchesInjected()),
                batcher.meanCoalesced(), 1e-9);
    // At 1500 qps a 2 ms hold coalesces some riders.
    EXPECT_GT(batcher.meanCoalesced(), 1.0);
}

} // namespace
