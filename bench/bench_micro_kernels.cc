/**
 * @file
 * google-benchmark microbenches for the simulator's layers. The
 * EventHold rows time the DES engine's event set under the hold model.
 * The Zipf-draw and cache-replay rows time the two layers of the
 * trace-driven row-cache build (CacheReplayNumbered replays rows numbered
 * up front, as the build feeds its caches), the AccessStream row one
 * worker's table-filtered walk of the access stream, the
 * ShardCacheBuild rows the whole streamed build at one and four workers
 * and the ShardCacheBuildTrace rows the trace overload at the same;
 * the AttemptStream row times the per-attempt randomness of the serving
 * fan-out, and the HedgeWindow and ResultCacheChurn rows the two per-RPC
 * structures of the hedged open loop: the hedge deadline and the
 * pooled-result cache.
 * The EpochRequests and PlanReplicaVector rows time the fleet's per-epoch
 * request stream and its capacity planner (fleet.decide's plans), and
 * the SampledSegment rows one fleet segment's replay untraced and under
 * the fleet's production trace sampling.
 */
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "cache/tiered_sim.h"
#include "core/serving.h"
#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "fleet/autoscaler.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "netsim/link_model.h"
#include "obs/sampler.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"
#include "rpc/hedge.h"
#include "rpc/result_cache.h"
#include "sim/engine.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "workload/access_trace.h"
#include "workload/diurnal.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/** Hold-model delay shapes (Jones, CACM 1986). */
enum HoldShape
{
    kHoldExponential, //!< exponential, mean 10 us: open-loop timers, wires
    kHoldConstant,    //!< constant 10 us: every event keeps its rank
    kHoldSerial,      //!< log-uniform 2^17..2^23 ns: serial replay's spread
};

/**
 * The event set under the hold model: `depth` events stay pending, and
 * each one that fires schedules its successor after a delay drawn from
 * the shape. Delays come from a precomputed ring so the rows time the
 * queue rather than the draw. items/s = events dispatched/s. The cost
 * per event grows with depth, so queue designs are compared at every
 * depth from serial replay's (16) to well past open loop's (4k).
 */
void
BM_EventHold(benchmark::State &state)
{
    const auto depth = static_cast<std::size_t>(state.range(0));
    const auto shape = static_cast<HoldShape>(state.range(1));
    constexpr std::size_t kRing = 1 << 16;
    std::vector<sim::Duration> delays(kRing);
    stats::Rng rng(0x401d);
    double mean = 0.0;
    for (auto &d : delays) {
        switch (shape) {
        case kHoldExponential:
            d = static_cast<sim::Duration>(-std::log1p(-rng.uniform()) *
                                           10.0 * sim::kMicrosecond);
            break;
        case kHoldConstant: d = 10 * sim::kMicrosecond; break;
        case kHoldSerial:
            d = static_cast<sim::Duration>(
                std::exp2(17.0 + 6.0 * rng.uniform()));
            break;
        }
        mean += static_cast<double>(d) / kRing;
    }

    struct Hold
    {
        sim::Engine *eng;
        const sim::Duration *delays;
        std::size_t *next;

        void
        operator()() const
        {
            eng->schedule(delays[(*next)++ % kRing], sim::kEvTimer, *this);
        }
    };
    sim::Engine eng;
    std::size_t next = 0;
    // Start in steady state: each event at a uniform point of one delay.
    for (std::size_t i = 0; i < depth; ++i)
        eng.scheduleAt(static_cast<sim::SimTime>(
                           rng.uniform() *
                           static_cast<double>(delays[next++ % kRing])),
                       sim::kEvTimer, Hold{&eng, delays.data(), &next});
    const auto window = static_cast<sim::Duration>(mean) + 1;
    eng.runUntil(4 * window);

    const std::uint64_t executed0 = eng.executed();
    for (auto _ : state)
        benchmark::DoNotOptimize(eng.runUntil(eng.now() + window));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(eng.executed() - executed0));
    state.counters["pending"] = static_cast<double>(eng.pending());
}
BENCHMARK(BM_EventHold)
    ->ArgNames({"depth", "shape"})
    ->ArgsProduct({{16, 64, 4096, 65536},
                   {kHoldExponential, kHoldConstant, kHoldSerial}});

/** One Zipf rank draw at the trace recorder's universe size (4096). */
void
BM_ZipfSample(benchmark::State &state)
{
    const stats::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)),
                                  0.8);
    stats::Rng rng(13);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample)->Arg(4096);

/**
 * Trace replay through a cold cache of each policy at 20% of the trace's
 * row universe, half warmup (cache::replayTrace); items/s = accesses/s.
 */
void
BM_CacheReplay(benchmark::State &state, cache::Policy policy)
{
    static const auto spec = model::makeShardedCacheStudySpec();
    static const auto trace = workload::recordTrace(
        spec,
        workload::RequestGenerator(spec, workload::GeneratorConfig{17})
            .generate(600),
        0.8, 17);
    const std::int64_t capacity =
        workload::traceFootprint(spec, trace).universe_bytes / 5;
    for (auto _ : state) {
        const auto result =
            cache::replayTrace(spec, trace, policy, capacity, 0.5);
        benchmark::DoNotOptimize(result.total.hits);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_CacheReplay, lru, cache::Policy::Lru);
BENCHMARK_CAPTURE(BM_CacheReplay, lfu, cache::Policy::Lfu);
BENCHMARK_CAPTURE(BM_CacheReplay, 2q, cache::Policy::TwoQueue);
BENCHMARK_CAPTURE(BM_CacheReplay, arc, cache::Policy::Arc);

/**
 * BM_CacheReplay's trace numbered once up front by a cache::RowNumbering
 * and fed as RowRefs (TieredCacheSim::access(RowRef)): the replay
 * without the sim's per-access numbering probe, bare or behind an
 * admission doorkeeper; items/s = accesses/s.
 */
void
BM_CacheReplayNumbered(benchmark::State &state, cache::Policy policy,
                       cache::Admission admission = cache::Admission::None)
{
    static const auto spec = model::makeShardedCacheStudySpec();
    static const auto trace = workload::recordTrace(
        spec,
        workload::RequestGenerator(spec, workload::GeneratorConfig{17})
            .generate(600),
        0.8, 17);
    static const auto rows = [] {
        std::vector<cache::RowRef> out;
        cache::RowNumbering ids;
        for (const auto &rec : trace.records())
            out.push_back(ids.number(rec.table_id, rec.row));
        return out;
    }();
    cache::TieredCacheConfig config;
    config.policy = policy;
    config.admission = admission;
    config.capacity_bytes =
        workload::traceFootprint(spec, trace).universe_bytes / 5;
    config.warmup_fraction = 0.5;
    for (auto _ : state) {
        cache::TieredCacheSim sim(spec, config);
        sim.begin(rows.size());
        for (const cache::RowRef &row : rows)
            sim.access(row);
        benchmark::DoNotOptimize(sim.result().total.hits);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(rows.size()));
}
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, lru, cache::Policy::Lru);
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, lfu, cache::Policy::Lfu);
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, 2q, cache::Policy::TwoQueue);
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, arc, cache::Policy::Arc);
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, lru_tinylfu, cache::Policy::Lru,
                  cache::Admission::TinyLfu);
BENCHMARK_CAPTURE(BM_CacheReplayNumbered, lru_wtinylfu, cache::Policy::Lru,
                  cache::Admission::WTinyLfu);

/**
 * One shard-group worker's walk of the access stream: forEachAccess over
 * the 600-request stream of the sharded-cache study spec, keeping a
 * quarter of its tables (t % 4 == 0) and skipping the rest's draws.
 * items/s = stream draws/s, kept or skipped.
 */
void
BM_AccessStream(benchmark::State &state)
{
    static const auto spec = model::makeShardedCacheStudySpec();
    static const auto requests =
        workload::RequestGenerator(spec, workload::GeneratorConfig{17})
            .generate(600);
    std::int64_t draws = 0;
    for (const auto &r : requests)
        draws += r.totalLookups();
    for (auto _ : state) {
        std::int64_t rows = 0;
        workload::forEachAccess(
            spec, requests, 0.8, 17,
            [&rows](const workload::AccessRecord &rec) { rows += rec.row; },
            [](std::size_t t) { return t % 4 == 0; });
        benchmark::DoNotOptimize(rows);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            draws);
}
BENCHMARK(BM_AccessStream);

/**
 * The streamed per-shard row-cache build (core::buildShardCacheModels's
 * request overload) over a capacity-balanced 4-shard plan, on Arg(0)
 * shard-group workers; items/s = accesses/s.
 */
void
BM_ShardCacheBuild(benchmark::State &state)
{
    static const auto spec = model::makeShardedCacheStudySpec();
    static const auto plan = core::makeCapacityBalanced(spec, 4);
    static const auto requests =
        workload::RequestGenerator(spec, workload::GeneratorConfig{17})
            .generate(600);
    std::int64_t accesses = 0;
    for (const auto &r : requests)
        accesses += r.totalLookups();
    const core::ShardCacheOptions options;
    const auto workers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto models = core::buildShardCacheModels(
            spec, plan, requests, 0.8, 17, options, workers);
        benchmark::DoNotOptimize(models.results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            accesses);
}
BENCHMARK(BM_ShardCacheBuild)->Arg(1)->Arg(4)->UseRealTime();

/**
 * The trace overload of the per-shard row-cache build over a recorded
 * trace of the fleet study's shape (DRM2, capacity-balanced over 4
 * shards, skew 0.8, seed 0x7ace, 40% budgets), on Arg(0) shard-group
 * workers; items/s = trace records/s. The study streams 400 requests;
 * 20 keep the stored trace near 1.1M records (27 MB).
 */
void
BM_ShardCacheBuildTrace(benchmark::State &state)
{
    static const auto spec = model::makeDrm2();
    static const auto plan = core::makeCapacityBalanced(spec, 4);
    static const auto trace = workload::recordTrace(
        spec,
        workload::RequestGenerator(spec, workload::GeneratorConfig{0x7ace})
            .generate(20),
        0.8, 0x7ace);
    core::ShardCacheOptions options;
    options.capacity_fraction = 0.4;
    options.costs.miss_ns = 300.0;
    const auto workers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto models =
            core::buildShardCacheModels(spec, plan, trace, options, workers);
        benchmark::DoNotOptimize(models.results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ShardCacheBuildTrace)->Arg(1)->Arg(4)->UseRealTime();

/**
 * The per-attempt randomness of a sparse-RPC fan-out: derive the
 * attempt's counter-stream key from its identity salt, then take its
 * draws — wire jitter out, a straggler roll, wire jitter back.
 * items/s = attempts/s.
 */
void
BM_AttemptStream(benchmark::State &state)
{
    const netsim::LinkModel link{netsim::LinkConfig{}};
    const stats::Rng run(0x5eed);
    std::uint64_t id = 0;
    for (auto _ : state) {
        stats::CounterStream stream(
            run.forkSeed(core::attemptSalt(id++, 0, 0, 3, false, 0)));
        sim::Duration delay = link.oneWayDelay(4096, stream);
        if (stats::bernoulli(stream, 0.02))
            delay *= 8;
        delay += link.oneWayDelay(512, stream);
        benchmark::DoNotOptimize(delay);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AttemptStream);

/**
 * The hedge deadline's per-response work: one add() to a full
 * kHedgeWindow-sample window at the 0.95 quantile, then one value(), over
 * log-normal latencies (median 1 ms, sigma 0.25) with 2% x8 stragglers.
 * items/s = responses/s.
 */
void
BM_HedgeWindow(benchmark::State &state)
{
    std::vector<sim::Duration> samples(4096);
    stats::Rng rng(29);
    for (sim::Duration &s : samples) {
        double ns = 1e6 * std::exp(0.25 * stats::gaussian(rng));
        if (stats::bernoulli(rng, 0.02))
            ns *= 8.0;
        s = static_cast<sim::Duration>(std::llround(ns));
    }
    rpc::LatencyTracker tracker(rpc::kHedgeWindow, 0.95);
    for (const sim::Duration s : samples)
        tracker.add(s);
    std::size_t i = 0;
    for (auto _ : state) {
        tracker.add(samples[i]);
        benchmark::DoNotOptimize(tracker.value());
        i = (i + 1) % samples.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HedgeWindow);

/**
 * The pooled-result cache on the open loop's shape: a 50 ms TTL, ~100 KB
 * responses (about 640 entries fill the byte budget) and keys that never
 * repeat, so each RPC is one missed lookup and one insert that evicts
 * the LRU entry. items/s = RPCs/s.
 */
void
BM_ResultCacheChurn(benchmark::State &state)
{
    rpc::ResultCacheConfig cfg;
    cfg.enabled = true;
    cfg.ttl_ns = 50'000'000;
    rpc::ResultCache cache(cfg);
    stats::Rng rng(31);
    std::uint64_t signature = 0;
    sim::SimTime now = 0;
    for (auto _ : state) {
        const rpc::ResultCache::Key key{
            static_cast<int>(signature % 3), static_cast<int>(signature % 8),
            rpc::resultSignature(64, static_cast<std::int64_t>(signature))};
        ++signature;
        now += 10'000;
        benchmark::DoNotOptimize(cache.lookup(key, now));
        cache.insert(key, 96'000 + static_cast<std::int64_t>(rng() % 16'000),
                     now, cache.epoch());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["entries"] = static_cast<double>(cache.entries());
}
BENCHMARK(BM_ResultCacheChurn);

/**
 * One fleet epoch's request stream (280 requests, the fleet study's
 * epoch) from a 768-context pool, cycling the epoch over a day.
 */
void
BM_EpochRequests(benchmark::State &state)
{
    workload::DiurnalLoadConfig dl;
    dl.context_pool = 768;
    const workload::DiurnalLoadModel load(model::makeDrm2(), dl);
    int epoch = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(load.epochRequests(epoch, 280));
        epoch = (epoch + 1) % dl.epochs_per_day;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            280);
}
BENCHMARK(BM_EpochRequests);

/** The fleet study hedged as in bench_chaos_suite, built once. */
const fleet::FleetStudy &
hedgedFleetStudy()
{
    static const fleet::FleetStudy study = [] {
        fleet::FleetStudy s = fleet::makeFleetStudy(false);
        s.serving.hedge.enabled = true;
        s.serving.hedge.quantile = 0.95;
        s.serving.hedge.min_samples = 64;
        s.serving.hedge.max_hedge_fraction = 0.10;
        return s;
    }();
    return study;
}

/**
 * fleet.decide's planning step: one cache-miss
 * CapacityPlanner::replicaVectorFor at the peak forecast, on a fresh
 * planner over the fleet study hedged as in bench_chaos_suite. The
 * planner is built outside the timed region. items/s = plans/s.
 */
void
BM_PlanReplicaVector(benchmark::State &state)
{
    const fleet::FleetStudy &study = hedgedFleetStudy();
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const auto planning =
        load.epochRequests(0, study.planner.planning_requests);
    for (auto _ : state) {
        state.PauseTiming();
        fleet::CapacityPlanner planner(study.spec, study.plan, study.serving,
                                       study.planner, planning);
        state.ResumeTiming();
        benchmark::DoNotOptimize(
            planner.replicaVectorFor(load.peakForecastQps()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlanReplicaVector)->Unit(benchmark::kMillisecond);

/**
 * One fleet segment: the hedged fleet study (DRM2 capacity-balanced over
 * 4 shards) replays one epoch's 280 requests at 450 qps on the replica
 * vector its planner picks for that rate. Arg 0 runs untraced; arg 1
 * samples traces as FleetSim::runSegment does, with a per-epoch
 * kTracePerEpochByteBudget sampler and a default rolling window as its
 * latency feed. The simulation, tracer and sampler are built in the
 * timed region, as each segment builds them. items/s = requests/s.
 */
void
BM_SampledSegment(benchmark::State &state)
{
    const fleet::FleetStudy &study = hedgedFleetStudy();
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const auto requests = load.epochRequests(0, 280);
    core::ServingConfig cfg = study.serving;
    cfg.sparse_replicas_per_shard =
        fleet::CapacityPlanner(
            study.spec, study.plan, study.serving, study.planner,
            load.epochRequests(0, study.planner.planning_requests))
            .replicaVectorFor(450.0);
    const bool sampled = state.range(0) != 0;
    std::size_t retained = 0;
    for (auto _ : state) {
        obs::SamplerConfig sc;
        sc.reservoir_size = 8; // FleetSim's per-epoch reservoir
        sc.retained_byte_budget = fleet::kTracePerEpochByteBudget;
        obs::TraceSampler sampler(sc);
        obs::SpanTracer tracer;
        tracer.setSampler(&sampler);
        obs::RollingHistogram feed;
        core::ServingConfig run = cfg;
        if (sampled) {
            sampler.setLatencyFeed(&feed);
            run.tracer = &tracer;
        }
        core::ServingSimulation sim(study.spec, study.plan, run);
        benchmark::DoNotOptimize(sim.replayOpenLoop(requests, 450.0));
        retained = sampler.retained().size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(requests.size()));
    state.counters["retained"] = static_cast<double>(retained);
}
BENCHMARK(BM_SampledSegment)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
