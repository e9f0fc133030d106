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
 *    std:: distribution adapters (the contract mt64.h declares), also
 *    when its seeds are expanded in batches by Mt64::seedMany();
 *  - Rng::forkInto() leaves no trace of the reused stream's old state;
 *  - a warmed distributed serial replay makes fewer than 5 operator-new
 *    calls per request;
 *  - stats::Rng's hand-rolled draw helpers (uniform, gaussian,
 *    exponential, bernoulli) are bit-identical to per-call-constructed
 *    libstdc++ distribution objects over the same engine stream (the
 *    contract rng.h declares);
 *  - fleet::ParallelSweep produces byte-identical ledgers (simulation
 *    AND telemetry fingerprints) at thread counts {1, 2, 8};
 *  - the streamed core::buildShardCacheModels allocates in proportion to
 *    distinct rows, not accesses (global operator-new byte counting).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/serving.h"
#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "fleet/parallel_sweep.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "sim/engine.h"
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

/** `k` fresh streams on `seeds`, raw words [1, n) expanded together. */
std::vector<stats::Mt64>
seededTogether(const std::vector<std::uint64_t> &seeds, int n)
{
    std::vector<stats::Mt64> gens(seeds.begin(), seeds.end());
    std::vector<stats::Mt64 *> ptrs;
    for (auto &g : gens)
        ptrs.push_back(&g);
    stats::Mt64::seedMany(ptrs.data(), static_cast<int>(ptrs.size()), n);
    return gens;
}

TEST(SimPerf, SeedManyMatchesStdMt19937_64)
{
    for (const int k : {1, 2, 3, 7, 15, 16}) {
        std::vector<std::uint64_t> seeds;
        for (int j = 0; j < k; ++j)
            seeds.push_back(0x9e3779b97f4a7c15ull *
                                static_cast<std::uint64_t>(j + 1) ^
                            static_cast<std::uint64_t>(k));
        for (const int n : {1, 164, 312}) {
            // Every short-stream cutoff, as the serving fan-out draws.
            for (int draws = 0; draws <= 40; ++draws) {
                auto gens = seededTogether(seeds, n);
                for (int j = 0; j < k; ++j) {
                    std::mt19937_64 ref(seeds[static_cast<std::size_t>(j)]);
                    for (int i = 0; i < draws; ++i)
                        ASSERT_EQ(ref(), gens[static_cast<std::size_t>(j)]())
                            << "k=" << k << " n=" << n << " draws=" << draws
                            << " stream=" << j << " i=" << i;
                }
            }
            // Across the first 312-word block boundary.
            auto gens = seededTogether(seeds, n);
            for (int j = 0; j < k; ++j) {
                std::mt19937_64 ref(seeds[static_cast<std::size_t>(j)]);
                for (int i = 0; i < 312 + 17; ++i)
                    ASSERT_EQ(ref(), gens[static_cast<std::size_t>(j)]())
                        << "k=" << k << " n=" << n << " stream=" << j
                        << " i=" << i;
            }
        }
    }
}

TEST(SimPerf, ForkIntoReusedStreamEqualsFreshFork)
{
    const stats::Rng parent(0x5eed);
    // Reused after no draws, a few (lazy first block), and past a block
    // boundary (steady-state twisting).
    for (const int used : {0, 3, 200, 700}) {
        stats::Rng child = parent.fork(99);
        for (int i = 0; i < used; ++i)
            child.uniform();
        parent.forkInto(7, child);
        stats::Rng fresh = parent.fork(7);
        EXPECT_EQ(child.seed(), fresh.seed());
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(fresh.engine()(), child.engine()())
                << "used=" << used << " i=" << i;

        // The batched path: forkInto, then seedMany over the engine.
        parent.forkInto(8, child);
        stats::Mt64 *engine = &child.engine();
        stats::Mt64::seedMany(&engine, 1, 164);
        stats::Rng fresh8 = parent.fork(8);
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(fresh8.engine()(), child.engine()())
                << "used=" << used << " i=" << i;
    }
}

TEST(SimPerf, SeedManyRejectsMisuse)
{
    std::vector<stats::Mt64> gens(17, stats::Mt64(1));
    std::vector<stats::Mt64 *> ptrs;
    for (auto &g : gens)
        ptrs.push_back(&g);
    // More streams than the interleaving buffer holds.
    EXPECT_THROW(stats::Mt64::seedMany(ptrs.data(), 17, 164),
                 std::invalid_argument);
    EXPECT_THROW(stats::Mt64::seedMany(ptrs.data(), -1, 164),
                 std::invalid_argument);
    EXPECT_THROW(stats::Mt64::seedMany(ptrs.data(), 1, 0),
                 std::invalid_argument);
    EXPECT_THROW(stats::Mt64::seedMany(ptrs.data(), 1, 313),
                 std::invalid_argument);
    // A stream already drawn from has overwritten raw seed words.
    gens[3]();
    EXPECT_THROW(stats::Mt64::seedMany(ptrs.data(), 4, 164),
                 std::invalid_argument);
    EXPECT_NO_THROW(stats::Mt64::seedMany(ptrs.data(), 3, 164));
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
