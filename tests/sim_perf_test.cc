/**
 * @file
 * Performance-contract properties of the simulator core. These are the
 * tests the perf-sensitive headers cite:
 *
 *  - steady-state event scheduling performs ZERO heap allocations per
 *    event (global operator-new counting around a warmed engine), and
 *    the serving closures fit InlineFn's inline buffer;
 *  - stats::Mt64 is output-identical to std::mt19937_64 at every seed
 *    and draw count, including across twist-block boundaries and under
 *    std:: distribution adapters (the contract mt64.h declares);
 *  - the per-attempt stats::CounterStream: draw i is a pure function of
 *    (key, i) under interleaving and pooled reuse, its canonical,
 *    gaussian and wire-jitter draws match the Mt64 helpers' in moments
 *    and a two-sample KS test, and streams of adjacent attempt salts are
 *    uncorrelated;
 *  - a warmed distributed serial replay makes fewer than 5 operator-new
 *    calls per request;
 *  - stats::Rng's hand-rolled draw helpers (uniform, gaussian,
 *    exponential, bernoulli) are bit-identical to per-call-constructed
 *    libstdc++ distribution objects over the same engine stream (the
 *    contract rng.h declares);
 *  - an open-loop replay, raw or batched, keeps the engine's peak
 *    pending events and slot blocks flat (within 10%) when its request
 *    count grows 10x at a fixed sub-capacity rate;
 *  - fleet::ParallelSweep produces byte-identical ledgers (simulation
 *    AND telemetry fingerprints) at thread counts {1, 2, 8};
 *  - the streamed core::buildShardCacheModels allocates in proportion to
 *    distinct rows, not accesses (global operator-new byte counting).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "fleet/parallel_sweep.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "netsim/link_model.h"
#include "sched/batcher.h"
#include "sim/engine.h"
#include "stats/distributions.h"
#include "stats/hash.h"
#include "stats/mt64.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

// ---------------------------------------------------------------------------
// Global allocation counter. Every operator-new in this binary funnels
// through here; tests read the counter around a region to prove the
// region allocates nothing.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};

void *
countedAlloc(std::size_t n)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace dri;

// ---------------------------------------------------------------------------
// Zero steady-state allocations per event.
// ---------------------------------------------------------------------------

/** A self-rescheduling event: the shape of the serving hot path's
 *  closures (a pointer, a couple of scalars — far under the inline
 *  cap). */
struct Chain
{
    sim::Engine *eng;
    int left;
    std::uint64_t *sink;

    void
    operator()() const
    {
        *sink += static_cast<std::uint64_t>(left);
        if (left > 0)
            eng->schedule(100, sim::kEvTimer, Chain{eng, left - 1, sink});
    }
};

TEST(SimPerf, SteadyStateSchedulingAllocatesNothing)
{
    sim::Engine eng;
    std::uint64_t sink = 0;
    constexpr int kChains = 64;

    // Warm-up: grow the slot arena and the ready-queue vector to their
    // steady footprint (the pending high-water mark below never exceeds
    // this phase's).
    for (int c = 0; c < kChains; ++c)
        eng.schedule(c, sim::kEvTimer, Chain{&eng, 50, &sink});
    eng.run();

    const std::uint64_t heap_fallbacks0 = sim::inlineFnHeapAllocations();
    const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);

    // Steady state: 64 concurrent chains x 200 steps = 12,864 events
    // scheduled, dispatched, and recycled through the arena free list.
    for (int c = 0; c < kChains; ++c)
        eng.schedule(c, sim::kEvTimer, Chain{&eng, 200, &sink});
    const std::size_t executed = eng.run();

    const std::uint64_t news1 = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(executed, static_cast<std::size_t>(kChains * 201));
    EXPECT_EQ(news1 - news0, 0u)
        << "steady-state scheduling reached operator new";
    EXPECT_EQ(sim::inlineFnHeapAllocations() - heap_fallbacks0, 0u)
        << "a hot-path closure outgrew InlineFn's inline buffer";
    EXPECT_EQ(eng.profile().heap_callbacks, 0u);
    EXPECT_GT(sink, 0u);
}

// ---------------------------------------------------------------------------
// Mt64 == std::mt19937_64, bit for bit.
// ---------------------------------------------------------------------------

TEST(SimPerf, Mt64MatchesStdMt19937_64)
{
    const std::uint64_t seeds[] = {0ull, 1ull, 5489ull,
                                   0x9e3779b97f4a7c15ull, ~0ull};
    for (const std::uint64_t seed : seeds) {
        // Fork-like short streams at every length 0..40: the common
        // case is a freshly forked engine drawn a handful of times, so
        // lazy seeding must match at every cutoff.
        for (int k = 0; k <= 40; ++k) {
            std::mt19937_64 ref(seed);
            stats::Mt64 mine(seed);
            for (int i = 0; i < k; ++i)
                ASSERT_EQ(ref(), mine())
                    << "seed=" << seed << " k=" << k << " i=" << i;
        }
        // One long stream crossing several 312-word twist blocks.
        std::mt19937_64 ref(seed);
        stats::Mt64 mine(seed);
        for (int i = 0; i < 312 * 5 + 17; ++i)
            ASSERT_EQ(ref(), mine()) << "seed=" << seed << " i=" << i;

        // Interop: std:: distribution adapters over Mt64 see the same
        // variates as over std::mt19937_64.
        std::mt19937_64 r2(seed);
        stats::Mt64 m2(seed);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(std::normal_distribution<double>(0, 1)(r2),
                      std::normal_distribution<double>(0, 1)(m2))
                << i;
            ASSERT_EQ(std::uniform_real_distribution<double>(0, 1)(r2),
                      std::uniform_real_distribution<double>(0, 1)(m2))
                << i;
        }
    }
}

// ---------------------------------------------------------------------------
// The per-attempt counter stream.
// ---------------------------------------------------------------------------

/** Draw i of the stream keyed `key`, straight from the definition. */
std::uint64_t
counterDraw(std::uint64_t key, std::uint64_t i)
{
    return stats::mix64(key + (i + 1) * 0x9e3779b97f4a7c15ull);
}

/** The key the serving engine gives request `id`'s primary on group `gi`. */
std::uint64_t
attemptKey(const stats::Rng &run, std::uint64_t id, std::size_t gi)
{
    return run.forkSeed(core::attemptSalt(id, 0, 0, gi, false, 0));
}

TEST(SimPerf, CounterStreamDrawIsPureFunctionOfKeyAndIndex)
{
    const stats::Rng run(0x5eed);
    // The key derivation is fork()'s: a stream keyed forkSeed(salt)
    // belongs to the same identity an Rng fork(salt) would.
    EXPECT_EQ(run.forkSeed(42), run.fork(42).seed());

    // Three streams drawn in an irregular interleaving each see exactly
    // their own (key, i) sequence.
    const std::uint64_t keys[] = {attemptKey(run, 1, 0),
                                  attemptKey(run, 1, 1),
                                  attemptKey(run, 2, 0)};
    std::vector<stats::CounterStream> streams;
    for (const std::uint64_t k : keys)
        streams.emplace_back(k);
    std::uint64_t drawn[3] = {};
    for (int step = 0; step < 3000; ++step) {
        const auto s = static_cast<std::size_t>((step * 7 + step / 5) % 3);
        ASSERT_EQ(streams[s](), counterDraw(keys[s], drawn[s]++))
            << "stream=" << s << " step=" << step;
    }

    // A pooled stream rebuilt in place after any number of draws starts
    // over from draw 0; a copy continues where its source stood.
    for (const int used : {0, 1, 7, 1000}) {
        stats::CounterStream pooled(keys[0]);
        for (int i = 0; i < used; ++i)
            pooled();
        stats::CounterStream copy = pooled;
        for (int i = 0; i < 8; ++i)
            ASSERT_EQ(copy(), counterDraw(keys[0],
                                          static_cast<std::uint64_t>(used + i)));
        pooled = stats::CounterStream(keys[2]);
        for (std::uint64_t i = 0; i < 8; ++i)
            ASSERT_EQ(pooled(), counterDraw(keys[2], i)) << "used=" << used;
    }
}

/**
 * Expect two samples from one distribution: means within 5 standard
 * errors, variances within 5%, and a two-sample Kolmogorov-Smirnov
 * statistic below its 0.1% critical value.
 */
void
expectSameDistribution(std::vector<double> a, std::vector<double> b,
                       const std::string &what)
{
    const auto moments = [](const std::vector<double> &v) {
        double mean = 0.0;
        for (const double x : v)
            mean += x;
        mean /= static_cast<double>(v.size());
        double var = 0.0;
        for (const double x : v)
            var += (x - mean) * (x - mean);
        return std::pair{mean, var / static_cast<double>(v.size() - 1)};
    };
    const auto [mean_a, var_a] = moments(a);
    const auto [mean_b, var_b] = moments(b);
    const double na = static_cast<double>(a.size());
    const double nb = static_cast<double>(b.size());
    EXPECT_LT(std::abs(mean_a - mean_b),
              5.0 * std::sqrt(var_a / na + var_b / nb))
        << what << ": means " << mean_a << " vs " << mean_b;
    EXPECT_NEAR(var_a / var_b, 1.0, 0.05)
        << what << ": variances " << var_a << " vs " << var_b;

    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    double d = 0.0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const double x = std::min(a[i], b[j]);
        while (i < a.size() && a[i] == x)
            ++i;
        while (j < b.size() && b[j] == x)
            ++j;
        d = std::max(d, std::abs(static_cast<double>(i) / na -
                                 static_cast<double>(j) / nb));
    }
    EXPECT_LT(d, 1.95 * std::sqrt((na + nb) / (na * nb)))
        << what << ": KS statistic";
}

/** Canonical, gaussian and wire-jitter draws, taken in that order. */
struct DrawSamples
{
    std::vector<double> uniform, gaussian, jitter;

    template <class Engine>
    void
    draw(Engine &engine)
    {
        static const stats::LognormalSampler kJitter(
            1.0, netsim::LinkConfig{}.jitter_sigma);
        uniform.push_back(stats::canonical(engine));
        gaussian.push_back(stats::gaussian(engine));
        jitter.push_back(kJitter.sample(engine));
    }
};

void
expectSameDraws(const DrawSamples &a, const DrawSamples &b,
                const std::string &what)
{
    expectSameDistribution(a.uniform, b.uniform, what + " canonical");
    expectSameDistribution(a.gaussian, b.gaussian, what + " gaussian");
    expectSameDistribution(a.jitter, b.jitter, what + " jitter");
}

TEST(SimPerf, CounterStreamDistributionsMatchMt64Helpers)
{
    // The serving draw pattern: one short stream per attempt. Counter
    // streams keyed as the serving engine keys them vs Mt64 forks with
    // the same salts (the engine each attempt used to seed).
    constexpr std::size_t kAttempts = 50000;
    const stats::Rng run(0xc0ffee);
    DrawSamples counter, mt;
    for (std::uint64_t id = 0; id < kAttempts; ++id) {
        const std::uint64_t salt = core::attemptSalt(id, 1, 0, 3, false, 0);
        stats::CounterStream c(run.forkSeed(salt));
        stats::Rng m = run.fork(salt);
        counter.draw(c);
        mt.draw(m);
    }
    expectSameDraws(counter, mt, "per-attempt");

    // One long stream of each kind, too.
    DrawSamples long_counter, long_mt;
    stats::CounterStream c(run.forkSeed(7));
    stats::Rng m = run.fork(7);
    for (std::size_t i = 0; i < kAttempts; ++i) {
        long_counter.draw(c);
        long_mt.draw(m);
    }
    expectSameDraws(long_counter, long_mt, "long");
}

/** Pearson correlation of x and y. */
double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    const double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        syy += y[i] * y[i];
        sxy += x[i] * y[i];
    }
    const double cov = sxy - sx * sy / n;
    return cov / std::sqrt((sxx - sx * sx / n) * (syy - sy * sy / n));
}

TEST(SimPerf, AdjacentAttemptStreamsAreUncorrelated)
{
    // Attempts whose identities differ by one request id, or by one
    // fan-out group, get adjacent salts. Draw j of one stream must not
    // predict draw k of its neighbour's.
    constexpr std::size_t kPairs = 50000;
    constexpr int kDraws = 4;
    const stats::Rng run(0xabcdef);
    const double bound = 4.5 / std::sqrt(static_cast<double>(kPairs));
    for (const bool by_group : {false, true}) {
        std::vector<double> draws[2][kDraws];
        for (std::size_t n = 0; n < kPairs; ++n) {
            for (int side = 0; side < 2; ++side) {
                const std::size_t step = n + static_cast<std::size_t>(side);
                stats::CounterStream s(by_group ? attemptKey(run, 9, step)
                                                : attemptKey(run, step, 2));
                for (int j = 0; j < kDraws; ++j)
                    draws[side][j].push_back(stats::canonical(s));
            }
        }
        for (int j = 0; j < kDraws; ++j)
            for (int k = 0; k < kDraws; ++k)
                EXPECT_LT(std::abs(correlation(draws[0][j], draws[1][k])),
                          bound)
                    << (by_group ? "group" : "request") << " j=" << j
                    << " k=" << k;
    }
}

// ---------------------------------------------------------------------------
// The serving fan-out path allocates per request only what it returns.
// ---------------------------------------------------------------------------

TEST(SimPerf, WarmDistributedReplayAllocatesLittlePerRequest)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 8);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{0xa110c});
    const auto warm = gen.generate(2000);
    const auto timed = gen.generate(2000);
    sim.replaySerial(warm);

    const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);
    const auto stats = sim.replaySerial(timed);
    const std::uint64_t news =
        g_news.load(std::memory_order_relaxed) - news0;

    ASSERT_EQ(stats.size(), timed.size());
    ASSERT_GT(stats.front().rpc_count, 0);
    // What remains is the two per-shard vectors of each RequestStats,
    // copied into the results and to the completion callback (4 per
    // request), plus amortized growth of the RPC log. For scale: with
    // the fan-out list grown by push_back in every batch, a deque of
    // slot waiters re-created with every recycled request, and a
    // three-word completion closure (over std::function's inline
    // buffer), this replay made ~37 per request.
    EXPECT_LT(news, 5 * timed.size())
        << static_cast<double>(news) / static_cast<double>(timed.size())
        << " operator-new calls per request";
}

// ---------------------------------------------------------------------------
// Rng draw helpers == per-call std:: distribution objects.
// ---------------------------------------------------------------------------

TEST(SimPerf, DrawHelpersMatchStdDistributions)
{
    const std::uint64_t seeds[] = {1ull, 42ull, 5489ull, 0xdeadbeefull};
    for (const std::uint64_t seed : seeds) {
        // uniform() == generate_canonical: one engine word scaled by
        // 2^-64 with the rounds-to-1.0 edge clamped below 1.
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 200000; ++i)
                ASSERT_EQ(
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref),
                    rng.uniform())
                    << "seed=" << seed << " i=" << i;
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i) {
                const double lo = -3.0 * (i % 4);
                const double hi = lo + 0.5 + (i % 11);
                ASSERT_EQ(
                    std::uniform_real_distribution<double>(lo, hi)(ref),
                    rng.uniform(lo, hi))
                    << "seed=" << seed << " i=" << i;
            }
        }
        // gaussian() == a normal_distribution constructed per call
        // (no cached second deviate), both plain and (mean, stddev).
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i)
                ASSERT_EQ(std::normal_distribution<double>(0.0, 1.0)(ref),
                          rng.gaussian())
                    << "seed=" << seed << " i=" << i;
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 50000; ++i) {
                const double mean = (i % 7) * 1.5;
                const double sd = 0.1 + (i % 5);
                ASSERT_EQ(std::normal_distribution<double>(mean, sd)(ref),
                          rng.gaussian(mean, sd))
                    << "seed=" << seed << " i=" << i;
            }
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 100000; ++i) {
                const double rate = 0.5 + (i % 9);
                ASSERT_EQ(std::exponential_distribution<double>(rate)(ref),
                          rng.exponential(rate))
                    << "seed=" << seed << " i=" << i;
            }
        }
        {
            std::mt19937_64 ref(seed);
            stats::Rng rng(seed);
            for (int i = 0; i < 100000; ++i) {
                const double p = (i % 100) / 100.0;
                ASSERT_EQ(std::bernoulli_distribution(p)(ref),
                          rng.bernoulli(p))
                    << "seed=" << seed << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The streamed row-cache build allocates for distinct rows, not accesses.
// ---------------------------------------------------------------------------

struct StreamedBuild
{
    std::int64_t accesses = 0;
    std::uint64_t allocated_bytes = 0;
};

/** makeFleetStudy's row-cache build over `n_requests` requests. */
StreamedBuild
streamedFleetCacheBuild(std::size_t n_requests)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const auto requests =
        workload::RequestGenerator(spec, workload::GeneratorConfig{0x7ace})
            .generate(n_requests);
    StreamedBuild out;
    for (const auto &req : requests)
        out.accesses += req.totalLookups();

    core::ShardCacheOptions sco;
    sco.capacity_fraction = 0.4;
    sco.costs.miss_ns = 300.0;
    const std::uint64_t bytes0 = g_new_bytes.load(std::memory_order_relaxed);
    const auto models =
        core::buildShardCacheModels(spec, plan, requests, 0.8, 0x7ace, sco);
    out.allocated_bytes =
        g_new_bytes.load(std::memory_order_relaxed) - bytes0;
    EXPECT_EQ(models.models.size(), 4u);
    return out;
}

TEST(SimPerf, StreamedCacheBuildMemoryIndependentOfAccessCount)
{
    const auto base = streamedFleetCacheBuild(400);
    // Everything the build allocates, freed or not, stays under a tenth
    // of what recording the trace alone would hold.
    const double trace_bytes =
        static_cast<double>(sizeof(workload::AccessRecord)) *
        static_cast<double>(base.accesses);
    EXPECT_LT(static_cast<double>(base.allocated_bytes), 0.1 * trace_bytes)
        << base.allocated_bytes << " B allocated for " << base.accesses
        << " accesses";

    const auto grown = streamedFleetCacheBuild(4000);
    EXPECT_GT(grown.accesses, 9 * base.accesses);
    EXPECT_LT(static_cast<double>(grown.allocated_bytes),
              1.5 * static_cast<double>(base.allocated_bytes))
        << base.allocated_bytes << " B -> " << grown.allocated_bytes << " B";
}

// ---------------------------------------------------------------------------
// Open-loop replays: the event heap holds in-flight work, not the stream.
// ---------------------------------------------------------------------------

/** Engine heap high-water marks of one open-loop replay. */
struct HeapDepth
{
    std::size_t peak_pending = 0;
    std::uint64_t arena_blocks = 0;
};

template <class Replay>
HeapDepth
openLoopHeapDepth(std::size_t n, Replay replay)
{
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    core::ServingSimulation sim(spec, plan, core::ServingConfig{});
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{0xf1a7});
    const auto requests = gen.generate(n);
    EXPECT_EQ(replay(sim, requests).size(), n);
    const sim::EngineProfile p = sim.engine().profile();
    return {p.peak_pending, p.arena_blocks};
}

/** 10x the requests at the same sub-capacity rate: depth within 10%. */
template <class Replay>
void
expectHeapFlatInRequestCount(Replay replay)
{
    const HeapDepth base = openLoopHeapDepth(2000, replay);
    const HeapDepth grown = openLoopHeapDepth(20000, replay);
    const auto within = [](double grown_v, double base_v) {
        return grown_v >= 0.9 * base_v && grown_v <= 1.1 * base_v;
    };
    EXPECT_TRUE(within(static_cast<double>(grown.peak_pending),
                       static_cast<double>(base.peak_pending)))
        << "peak_pending " << base.peak_pending << " -> "
        << grown.peak_pending;
    EXPECT_TRUE(within(static_cast<double>(grown.arena_blocks),
                       static_cast<double>(base.arena_blocks)))
        << "arena_blocks " << base.arena_blocks << " -> "
        << grown.arena_blocks;
    EXPECT_LT(grown.peak_pending, 2000u); // in-flight scale, not 20k
}

constexpr double kFlatQps = 150.0;

TEST(SimPerf, OpenLoopReplayHeapIsFlatInRequestCount)
{
    expectHeapFlatInRequestCount(
        [](core::ServingSimulation &sim,
           const std::vector<workload::Request> &requests) {
            return sim.replayOpenLoop(requests, kFlatQps);
        });
}

TEST(SimPerf, BatchedOpenLoopHeapIsFlatInRequestCount)
{
    expectHeapFlatInRequestCount(
        [](core::ServingSimulation &sim,
           const std::vector<workload::Request> &requests) {
            return sched::runBatchedOpenLoop(sim, requests, kFlatQps,
                                             sched::BatcherConfig{});
        });
}

// ---------------------------------------------------------------------------
// ParallelSweep: thread count never changes a ledger.
// ---------------------------------------------------------------------------

TEST(SimPerf, ParallelSweepFingerprintsInvariantAcrossThreadCounts)
{
    auto study = fleet::makeFleetStudy(/*smoke=*/true);
    study.fleet.epochs = 8; // determinism, not ledger quality
    const auto cells = fleet::sweepGrid({"static-peak", "reactive"},
                                        {0xd1a1, 0xd1a2});
    const auto runner = [&study](const fleet::SweepCell &cell) {
        return fleet::runStudyCell(study, cell);
    };

    const auto baseline = fleet::ParallelSweep(1).run(cells, runner);
    ASSERT_EQ(baseline.size(), cells.size());
    for (const int threads : {2, 8}) {
        const auto got = fleet::ParallelSweep(threads).run(cells, runner);
        ASSERT_EQ(got.size(), baseline.size()) << threads;
        for (std::size_t i = 0; i < baseline.size(); ++i) {
            EXPECT_EQ(got[i].cell.policy, baseline[i].cell.policy);
            EXPECT_EQ(got[i].cell.seed, baseline[i].cell.seed);
            EXPECT_EQ(got[i].stats.fingerprint(),
                      baseline[i].stats.fingerprint())
                << "threads=" << threads << " cell=" << i;
            EXPECT_EQ(got[i].stats.telemetryFingerprint(),
                      baseline[i].stats.telemetryFingerprint())
                << "threads=" << threads << " cell=" << i;
        }
    }
}

} // namespace
