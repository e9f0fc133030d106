/**
 * @file
 * Serving determinism stress test: same seed => byte-identical
 * RequestStats across the full hedging x batching x admission x
 * result-cache configuration grid. Every stochastic component of the
 * pipeline draws from seeded streams (common random numbers per RPC
 * attempt), so two fresh simulations of the same config must agree on
 * EVERY field of EVERY request — exact integer equality and bitwise
 * double equality, not tolerances. This is the regression net for
 * CRN-stream bugs: any code path that consumes randomness in a
 * schedule-dependent order shows up here as a flaky mismatch.
 *
 * Registered with ctest under the `property` label (slow lane).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/critical_path.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "sched/batcher.h"
#include "sched/capacity_search.h"
#include "workload/request_generator.h"

#include "span_digest.h"

namespace {

using namespace dri;

/** Bitwise-equality comparison of two RequestStats. */
void
expectIdentical(const core::RequestStats &a, const core::RequestStats &b,
                const std::string &label)
{
    EXPECT_EQ(a.id, b.id) << label;
    EXPECT_EQ(a.items, b.items) << label;
    EXPECT_EQ(a.batches, b.batches) << label;
    EXPECT_EQ(a.rpc_count, b.rpc_count) << label;
    EXPECT_EQ(a.hedges, b.hedges) << label;
    EXPECT_EQ(a.hedge_wins, b.hedge_wins) << label;
    EXPECT_EQ(a.result_cache_hits, b.result_cache_hits) << label;
    EXPECT_EQ(a.result_cache_misses, b.result_cache_misses) << label;
    EXPECT_EQ(a.result_cache_bytes_saved, b.result_cache_bytes_saved)
        << label;
    EXPECT_EQ(a.arrival, b.arrival) << label;
    EXPECT_EQ(a.completion, b.completion) << label;
    EXPECT_EQ(a.e2e, b.e2e) << label;
    EXPECT_EQ(a.shed_reason, b.shed_reason) << label;
    EXPECT_EQ(a.batch_wait, b.batch_wait) << label;
    EXPECT_EQ(a.coalesced, b.coalesced) << label;
    EXPECT_EQ(a.queue_wait, b.queue_wait) << label;
    EXPECT_EQ(a.lat_serde, b.lat_serde) << label;
    EXPECT_EQ(a.lat_service, b.lat_service) << label;
    EXPECT_EQ(a.lat_net_overhead, b.lat_net_overhead) << label;
    EXPECT_EQ(a.lat_embedded, b.lat_embedded) << label;
    EXPECT_EQ(a.lat_dense, b.lat_dense) << label;
    EXPECT_EQ(a.emb_sparse_op, b.emb_sparse_op) << label;
    EXPECT_EQ(a.emb_serde, b.emb_serde) << label;
    EXPECT_EQ(a.emb_service, b.emb_service) << label;
    EXPECT_EQ(a.emb_net_overhead, b.emb_net_overhead) << label;
    EXPECT_EQ(a.emb_network, b.emb_network) << label;
    EXPECT_EQ(a.emb_queue, b.emb_queue) << label;
    // Doubles must match to the bit: same seed, same schedule, same
    // floating-point operations in the same order.
    EXPECT_EQ(a.hedge_wasted_cpu_ns, b.hedge_wasted_cpu_ns) << label;
    EXPECT_EQ(a.cpu_ops_ns, b.cpu_ops_ns) << label;
    EXPECT_EQ(a.cpu_serde_ns, b.cpu_serde_ns) << label;
    EXPECT_EQ(a.cpu_service_ns, b.cpu_service_ns) << label;
    EXPECT_EQ(a.main_op_ns, b.main_op_ns) << label;
    ASSERT_EQ(a.shard_op_ns.size(), b.shard_op_ns.size()) << label;
    for (std::size_t i = 0; i < a.shard_op_ns.size(); ++i)
        EXPECT_EQ(a.shard_op_ns[i], b.shard_op_ns[i]) << label << " shard "
                                                      << i;
    ASSERT_EQ(a.shard_net_op_ns.size(), b.shard_net_op_ns.size()) << label;
    for (std::size_t i = 0; i < a.shard_net_op_ns.size(); ++i)
        EXPECT_EQ(a.shard_net_op_ns[i], b.shard_net_op_ns[i])
            << label << " shard-net " << i;
}

using testutil::Digest;

/** Every field of one RequestStats, in declaration order. */
void
mixStats(Digest &d, const core::RequestStats &s)
{
    d.mix(s.id);
    d.mixInt(s.items);
    d.mixInt(s.batches);
    d.mixInt(s.rpc_count);
    d.mixInt(s.hedges);
    d.mixInt(s.hedge_wins);
    d.mixDouble(s.hedge_wasted_cpu_ns);
    d.mixInt(s.result_cache_hits);
    d.mixInt(s.result_cache_misses);
    d.mixInt(s.result_cache_bytes_saved);
    d.mixInt(s.arrival);
    d.mixInt(s.completion);
    d.mixInt(s.e2e);
    d.mixInt(static_cast<std::int64_t>(s.shed_reason));
    d.mixInt(s.batch_wait);
    d.mixInt(s.coalesced);
    d.mixInt(s.queue_wait);
    d.mixInt(s.lat_serde);
    d.mixInt(s.lat_service);
    d.mixInt(s.lat_net_overhead);
    d.mixInt(s.lat_embedded);
    d.mixInt(s.lat_dense);
    d.mixInt(s.emb_sparse_op);
    d.mixInt(s.emb_serde);
    d.mixInt(s.emb_service);
    d.mixInt(s.emb_net_overhead);
    d.mixInt(s.emb_network);
    d.mixInt(s.emb_queue);
    d.mixDouble(s.cpu_ops_ns);
    d.mixDouble(s.cpu_serde_ns);
    d.mixDouble(s.cpu_service_ns);
    d.mixInt(static_cast<std::int64_t>(s.shard_op_ns.size()));
    for (double v : s.shard_op_ns)
        d.mixDouble(v);
    d.mixInt(static_cast<std::int64_t>(s.shard_net_op_ns.size()));
    for (double v : s.shard_net_op_ns)
        d.mixDouble(v);
    d.mixDouble(s.main_op_ns);
}

struct GridPoint
{
    bool hedged = false;
    bool batched = false;
    bool admission = false;
    bool result_cache = false;
    /** How a batched point coalesces. */
    sched::BatchPolicy batch_policy = sched::BatchPolicy::QueueAware;

    std::string
    label() const
    {
        std::string s;
        s += hedged ? "hedge" : "nohedge";
        if (batched)
            s += batch_policy == sched::BatchPolicy::QueueAware
                     ? "+batch"
                     : "+batch(timeout)";
        s += admission ? "+admit" : "";
        s += result_cache ? "+rcache" : "";
        return s;
    }
};

/** The 16 points of the hedging x batching x admission x cache grid. */
std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true})
                    points.push_back({hedged, batched, admission, rcache});
    return points;
}

class ServingStressTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec_ = model::makeDrm2();
        plan_ = core::makeCapacityBalanced(spec_, 4);
        workload::RequestGenerator gen(
            spec_, workload::GeneratorConfig{0xbeef});
        requests_ = gen.generate(150);
    }

    /**
     * Digests of every RequestStats field of every request plus
     * hedgeStats(), resultCacheStats() and shedCancelledRpcs() of every
     * grid point (`stats`), and of every span a tracer records, in the
     * storage-independent order of testutil::mixSpans (`spans`, over
     * `span_count` spans). `tweak` adjusts each point's config before
     * it runs.
     */
    struct GridDigests
    {
        std::uint64_t stats;
        std::uint64_t spans;
        std::size_t span_count;
    };

    GridDigests
    gridDigests(void (*tweak)(core::ServingConfig &)) const
    {
        Digest stats, spans;
        std::size_t span_count = 0;
        for (const GridPoint &p : grid()) {
            obs::SpanTracer tracer;
            auto cfg = configFor(p);
            tweak(cfg);
            cfg.tracer = &tracer;
            core::ServingSimulation sim(spec_, plan_, cfg);
            for (const auto &s : replay(sim, p))
                mixStats(stats, s);

            const rpc::HedgeStats h = sim.hedgeStats();
            stats.mix(h.primary_rpcs);
            stats.mix(h.hedges);
            stats.mix(h.wins);
            stats.mix(h.losses);
            stats.mix(h.cancelled);
            stats.mix(h.suppressed);
            stats.mixDouble(h.wasted_busy_ns);
            stats.mixDouble(h.total_busy_ns);
            const rpc::ResultCacheStats &rc = sim.resultCacheStats();
            stats.mix(rc.lookups);
            stats.mix(rc.hits);
            stats.mix(rc.misses);
            stats.mix(rc.insertions);
            stats.mix(rc.expirations);
            stats.mix(rc.evictions);
            stats.mix(rc.invalidations);
            stats.mixInt(rc.bytes_saved);
            stats.mix(sim.shedCancelledRpcs());

            span_count += testutil::mixSpans(spans, tracer.spans());
        }
        return {stats.h, spans.h, span_count};
    }

    core::ServingConfig
    configFor(const GridPoint &p) const
    {
        auto cfg = sched::hedgeStudyConfig(
            rpc::LoadBalancePolicy::LeastOutstanding, 3, p.hedged);
        if (p.admission) {
            cfg.admission.max_main_queue = 64;
            cfg.admission.deadline_ns = 12 * sim::kMillisecond;
            cfg.admission.cancel_in_flight = true;
        }
        cfg.result_cache.enabled = p.result_cache;
        cfg.result_cache.ttl_ns = 50 * sim::kMillisecond;
        return cfg;
    }

    /** One replay of the fixture's requests through `sim`. */
    std::vector<core::RequestStats>
    replay(core::ServingSimulation &sim, const GridPoint &p) const
    {
        if (!p.batched)
            return sim.replayOpenLoop(requests_, 1500.0);
        sched::BatcherConfig bc;
        bc.policy = p.batch_policy;
        return sched::runBatchedOpenLoop(sim, requests_, 1500.0, bc);
    }

    std::vector<core::RequestStats>
    run(const GridPoint &p, obs::SpanTracer *tracer = nullptr,
        obs::RollingHistogram *latency_feed = nullptr) const
    {
        auto cfg = configFor(p);
        cfg.tracer = tracer;
        cfg.latency_feed = latency_feed;
        core::ServingSimulation sim(spec_, plan_, cfg);
        return replay(sim, p);
    }

    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    std::vector<workload::Request> requests_;
};

TEST_F(ServingStressTest, ByteIdenticalReplayAcrossConfigGrid)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto first = run(p);
                    const auto second = run(p);
                    ASSERT_EQ(first.size(), second.size()) << p.label();
                    ASSERT_EQ(first.size(), requests_.size()) << p.label();
                    for (std::size_t i = 0; i < first.size(); ++i)
                        expectIdentical(first[i], second[i],
                                        p.label() + " req " +
                                            std::to_string(i));
                }
}

/**
 * Pins the grid's exact behaviour to known digests (see gridDigests). A
 * refactor of the serving core must leave both digests unchanged; only a
 * deliberate behaviour change may update them.
 */
TEST_F(ServingStressTest, PinnedDigestsAcrossConfigGrid)
{
    const GridDigests d = gridDigests([](core::ServingConfig &) {});
    EXPECT_EQ(d.stats, 0x9b34d82192131121ull) << std::hex << d.stats;
    EXPECT_EQ(d.spans, 0x8f8a3d1ddea8ce11ull) << std::hex << d.spans;
    EXPECT_EQ(d.span_count, 264854u);
}

/**
 * The same grid with wire jitter and stragglers off: no RPC attempt
 * draws a single value from its per-attempt stream, so these digests
 * pin everything except per-attempt randomness. A change to how attempt
 * streams are generated must leave them unchanged.
 */
TEST_F(ServingStressTest, PinnedDigestsWithoutAttemptDraws)
{
    const GridDigests d = gridDigests([](core::ServingConfig &cfg) {
        cfg.link.jitter_sigma = 0.0;
        cfg.faults.straggler_prob = 0.0;
    });
    EXPECT_EQ(d.stats, 0x97fa4e17f899e05cull) << std::hex << d.stats;
    EXPECT_EQ(d.spans, 0x3a2dc2e70bb432fdull) << std::hex << d.spans;
    EXPECT_EQ(d.span_count, 271660u);
}

/**
 * Cross-config sanity on the same grid: every config serves or sheds
 * every request exactly once (conservation), and mid-flight shed
 * requests carry the deadline reason with their RPC evidence intact.
 */
TEST_F(ServingStressTest, EveryConfigConservesRequests)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto stats = run(p);
                    ASSERT_EQ(stats.size(), requests_.size()) << p.label();
                    for (const auto &s : stats) {
                        EXPECT_GE(s.e2e, 0) << p.label();
                        if (!p.admission) {
                            EXPECT_FALSE(s.shed()) << p.label();
                        }
                        if (!p.result_cache) {
                            EXPECT_EQ(s.result_cache_hits, 0)
                                << p.label();
                        }
                        if (!p.hedged) {
                            EXPECT_EQ(s.hedges, 0) << p.label();
                        }
                    }
                }
}

/**
 * Lifecycle invariants on every grid point, checked through the public
 * API: each injected id completes exactly once, the main shard ends with
 * an empty queue and every worker idle, and the drained simulation
 * serves a second replay of the same requests in full.
 */
TEST_F(ServingStressTest, ReplaysDrainCompletelyAcrossConfigGrid)
{
    const auto sortedIds = [](const auto &items) {
        std::vector<std::uint64_t> ids;
        for (const auto &item : items)
            ids.push_back(item.id);
        std::sort(ids.begin(), ids.end());
        return ids;
    };
    const std::vector<std::uint64_t> injected = sortedIds(requests_);
    for (const GridPoint &p : grid()) {
        const auto cfg = configFor(p);
        core::ServingSimulation sim(spec_, plan_, cfg);
        const std::size_t workers = sim.mainIdleWorkers();
        EXPECT_EQ(workers, static_cast<std::size_t>(std::min(
                               cfg.worker_threads, cfg.main_platform.cores)))
            << p.label();
        for (int pass = 1; pass <= 2; ++pass) {
            const std::string at = p.label() + " pass " + std::to_string(pass);
            EXPECT_EQ(sortedIds(replay(sim, p)), injected) << at;
            EXPECT_EQ(sim.mainQueueDepth(), 0u) << at;
            EXPECT_EQ(sim.mainIdleWorkers(), workers) << at;
        }
    }
}

/**
 * The pure-observer contract of the span tracer: attaching it to any
 * grid configuration leaves every field of every RequestStats
 * byte-identical to the untraced run — the tracer never consumes
 * randomness and never schedules events. The traced run additionally
 * has to produce a structurally sound trace: zero open spans, zero
 * nesting violations, and (for unbatched replays) exactly one root
 * span per injected request.
 */
TEST_F(ServingStressTest, TracingLeavesStatsByteIdentical)
{
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto baseline = run(p);
                    obs::SpanTracer tracer;
                    const auto traced = run(p, &tracer);
                    ASSERT_EQ(baseline.size(), traced.size()) << p.label();
                    for (std::size_t i = 0; i < baseline.size(); ++i)
                        expectIdentical(baseline[i], traced[i],
                                        p.label() + " traced req " +
                                            std::to_string(i));

                    const auto rep =
                        obs::checkConservation(tracer.spans());
                    EXPECT_GT(rep.total_spans, 0u) << p.label();
                    EXPECT_EQ(rep.open_spans, 0u) << p.label();
                    EXPECT_EQ(tracer.openCount(), 0u) << p.label();
                    EXPECT_EQ(rep.nesting_violations, 0u) << p.label();
                    // No span arrives after its tree was sealed.
                    ASSERT_NE(tracer.sampler(), nullptr) << p.label();
                    EXPECT_EQ(tracer.sampler()->stats().stale_span_drops,
                              0u)
                        << p.label();
                    if (!p.batched) {
                        // One root per injected request; the batcher
                        // merges requests so its root count is the
                        // (config-dependent) batch count instead.
                        EXPECT_TRUE(rep.ok(requests_.size()))
                            << p.label() << " roots=" << rep.root_spans;
                    } else {
                        EXPECT_GT(rep.root_spans, 0u) << p.label();
                        EXPECT_LE(rep.root_spans, requests_.size())
                            << p.label();
                    }
                }
}

/**
 * The rolling-latency feed shares the tracer's pure-observer contract:
 * attaching a RollingHistogram to any grid configuration leaves every
 * RequestStats byte-identical, while the feed itself sees exactly the
 * served (non-shed) simulated requests and a windowed P99 consistent
 * with them. Under the batcher a simulated request is a merged batch,
 * not a rider: runBatchedOpenLoop expands each batch into its riders,
 * each carrying coalesced = k for a k-rider batch, and the riders of
 * one batch share its completion and shed outcome.
 */
TEST_F(ServingStressTest, LatencyFeedLeavesStatsByteIdentical)
{
    // Queue-aware batching merges only once the main queue backs up,
    // which this fixture's load may never do; timeout batching merges
    // any arrivals that land within its delay, so every batched point
    // also runs with it.
    std::vector<GridPoint> points = grid();
    for (const GridPoint &p : grid())
        if (p.batched) {
            GridPoint timed = p;
            timed.batch_policy = sched::BatchPolicy::TimeoutCapped;
            points.push_back(timed);
        }
    std::uint64_t merged_riders = 0;
    for (const GridPoint &p : points) {
        const auto baseline = run(p);
        // Horizon far beyond the replay: every served request stays
        // inside the window for the final cross-check below.
        obs::RollingHistogram feed(obs::WindowConfig{1e6, 8});
        const auto fed = run(p, nullptr, &feed);
        ASSERT_EQ(baseline.size(), fed.size()) << p.label();
        // Served riders per batch size k; k of them make one served
        // simulated request.
        std::map<int, std::uint64_t> served_riders;
        std::int64_t max_e2e = 0;
        sim::SimTime last_completion = 0;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
            expectIdentical(baseline[i], fed[i],
                            p.label() + " fed req " + std::to_string(i));
            if (fed[i].coalesced > 1)
                ++merged_riders;
            if (!fed[i].shed()) {
                ++served_riders[fed[i].coalesced];
                max_e2e = std::max(max_e2e, fed[i].e2e);
                last_completion = std::max(last_completion, fed[i].completion);
            }
        }
        std::uint64_t served = 0;
        for (const auto &[k, riders] : served_riders) {
            const auto per_batch = static_cast<std::uint64_t>(k);
            EXPECT_EQ(riders % per_batch, 0u) << p.label() << " k=" << k;
            served += riders / per_batch;
        }
        const double t_s = static_cast<double>(last_completion) * 1e-9;
        EXPECT_EQ(feed.count(t_s), served) << p.label();
        if (served > 0) {
            const double p99 = feed.valueAtQuantile(t_s, 0.99);
            EXPECT_GT(p99, 0.0) << p.label();
            EXPECT_LE(p99, static_cast<double>(max_e2e) + 1.0) << p.label();
        }
    }
    // Requests were merged somewhere, so the per-batch count above is
    // exercised, not vacuous.
    EXPECT_GT(merged_riders, 0u);
}

/**
 * Tail-based trace sampling inherits the pure-observer contract on the
 * full grid: a tracer with an attached TraceSampler (plus the rolling
 * latency feed that drives its tail threshold) leaves every
 * RequestStats byte-identical to the untraced run. The sampler draws
 * only from its private RNG, so the retained set is itself
 * deterministic across reruns, and retained bytes never exceed the
 * configured budget.
 */
TEST_F(ServingStressTest, TraceSamplingLeavesStatsByteIdentical)
{
    const auto sampledRun = [this](const GridPoint &p,
                                   obs::TraceSampler &sampler) {
        obs::SpanTracer tracer;
        tracer.setSampler(&sampler);
        obs::RollingHistogram feed(obs::WindowConfig{1e6, 8});
        sampler.setLatencyFeed(&feed);
        return run(p, &tracer, &feed);
    };
    for (const bool hedged : {false, true})
        for (const bool batched : {false, true})
            for (const bool admission : {false, true})
                for (const bool rcache : {false, true}) {
                    const GridPoint p{hedged, batched, admission, rcache};
                    const auto baseline = run(p);

                    obs::SamplerConfig sc;
                    sc.reservoir_size = 8;
                    sc.retained_byte_budget = 256u << 10;
                    obs::TraceSampler sampler(sc);
                    const auto sampled = sampledRun(p, sampler);
                    ASSERT_EQ(baseline.size(), sampled.size())
                        << p.label();
                    for (std::size_t i = 0; i < baseline.size(); ++i)
                        expectIdentical(baseline[i], sampled[i],
                                        p.label() + " sampled req " +
                                            std::to_string(i));

                    EXPECT_GT(sampler.stats().roots_closed, 0u)
                        << p.label();
                    EXPECT_LE(sampler.retainedBytes(),
                              sc.retained_byte_budget)
                        << p.label();

                    // Same seed, same replay -> same retained set.
                    obs::TraceSampler rerun_sampler(sc);
                    sampledRun(p, rerun_sampler);
                    ASSERT_EQ(rerun_sampler.retained().size(),
                              sampler.retained().size())
                        << p.label();
                    for (std::size_t i = 0;
                         i < sampler.retained().size(); ++i) {
                        EXPECT_EQ(sampler.retained()[i].request_id,
                                  rerun_sampler.retained()[i].request_id)
                            << p.label();
                        EXPECT_EQ(sampler.retained()[i].keep_class,
                                  rerun_sampler.retained()[i].keep_class)
                            << p.label();
                    }
                }
}

} // namespace
