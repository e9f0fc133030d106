/**
 * @file
 * Property tests for cache v2 (ARC + TinyLFU admission):
 *
 *  - ARC is adaptive: at least min(LRU, LFU) and within epsilon of the
 *    better of the two on pure-recency and pure-frequency traces, and
 *    essentially the best of both on a mixed trace.
 *  - TinyLFU admission never lowers the hit rate on a Zipf trace at an
 *    equal byte budget (up to a one-access admission lag), for every
 *    eviction policy it wraps.
 *  - Structural invariants: byte budgets and ghost-list bounds hold at
 *    every access, and a budget of zero holds nothing under any
 *    admission; the 4-bit sketch stays bounded, actually ages and
 *    keeps its pinned layout.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/admission.h"
#include "cache/tiered_sim.h"
#include "model/generators.h"
#include "stats/distributions.h"
#include "stats/hash.h"
#include "stats/rng.h"
#include "workload/access_trace.h"
#include "workload/request_generator.h"

#include "numbered_cache.h"

namespace {

using namespace dri;
using cache::Admission;
using cache::Policy;

const double kBudgets[] = {0.05, 0.1, 0.2, 0.4};

workload::AccessTrace
zipfTrace(const model::ModelSpec &spec, double skew, std::uint64_t seed)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{seed});
    return workload::recordTrace(spec, gen.generate(600), skew, seed);
}

workload::AccessTrace
driftTrace(const model::ModelSpec &spec, double recency_fraction)
{
    workload::MixedTraceConfig mc;
    mc.recency_fraction = recency_fraction;
    return workload::synthesizeMixedTrace(spec, mc);
}

double
hitRate(const model::ModelSpec &spec, const workload::AccessTrace &trace,
        std::int64_t universe, Policy policy, double fraction,
        Admission admission = Admission::None)
{
    const auto cap = static_cast<std::int64_t>(
        fraction * static_cast<double>(universe));
    return cache::replayTrace(spec, trace, policy, cap, 0.5, admission)
        .overallHitRate();
}

/**
 * The adaptivity property: on traces where LRU and LFU disagree wildly,
 * ARC lands at least at the worse of the two (with a hair of slack) and
 * within 3% absolute of the better — on BOTH extremes, which no static
 * policy achieves.
 */
TEST(ArcProperty, TracksBestOfLruLfuOnPureTraces)
{
    const auto spec = model::makeCacheStudySpec();
    struct Case
    {
        const char *name;
        workload::AccessTrace trace;
    };
    const Case cases[] = {
        {"pure-frequency", zipfTrace(spec, 0.8, 17)},
        {"pure-recency", driftTrace(spec, 1.0)},
    };
    for (const auto &c : cases) {
        const auto universe =
            workload::traceFootprint(spec, c.trace).universe_bytes;
        for (const double f : kBudgets) {
            const double lru = hitRate(spec, c.trace, universe, Policy::Lru, f);
            const double lfu = hitRate(spec, c.trace, universe, Policy::Lfu, f);
            const double arc = hitRate(spec, c.trace, universe, Policy::Arc, f);
            EXPECT_GE(arc, std::min(lru, lfu) - 0.01)
                << c.name << " f=" << f;
            EXPECT_GE(arc, std::max(lru, lfu) - 0.03)
                << c.name << " f=" << f << " lru=" << lru
                << " lfu=" << lfu << " arc=" << arc;
        }
        // The extremes really are extremes: the policies disagree by a
        // wide margin somewhere, or the test proves nothing.
        const double lru = hitRate(spec, c.trace, universe, Policy::Lru, 0.1);
        const double lfu = hitRate(spec, c.trace, universe, Policy::Lfu, 0.1);
        EXPECT_GT(std::abs(lru - lfu), 0.05) << c.name;
    }
}

TEST(ArcProperty, NearBestOnMixedTrace)
{
    const auto spec = model::makeCacheStudySpec();
    const auto trace = driftTrace(spec, 0.5);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;
    for (const double f : kBudgets) {
        const double lru = hitRate(spec, trace, universe, Policy::Lru, f);
        const double lfu = hitRate(spec, trace, universe, Policy::Lfu, f);
        const double arc = hitRate(spec, trace, universe, Policy::Arc, f);
        // Beats the worse of the two clearly, and is within 1% of the
        // better — adaptivity is worth having on mixed traffic.
        EXPECT_GT(arc, std::min(lru, lfu) + 0.05) << "f=" << f;
        EXPECT_GE(arc, std::max(lru, lfu) - 0.01) << "f=" << f;
    }
}

TEST(ArcProperty, HitRateMonotoneInCapacity)
{
    const auto spec = model::makeCacheStudySpec();
    const auto trace = driftTrace(spec, 0.5);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;
    double prev = -1.0;
    for (const double f : {0.05, 0.1, 0.2, 0.4, 0.8, 1.0}) {
        const double h = hitRate(spec, trace, universe, Policy::Arc, f);
        EXPECT_GE(h, prev - 1e-9) << "f=" << f;
        prev = h;
    }
}

/**
 * The admission property from the issue: TinyLFU admission never lowers
 * the hit rate on a Zipf trace vs. no filter at an equal byte budget.
 * The 0.002 slack covers the doorkeeper's one-access admission lag (a
 * warm row's second access can still miss where an unfiltered cache
 * would have admitted it on the first); measured deltas beyond that are
 * real regressions.
 */
TEST(TinyLfuProperty, NeverLowersHitRateOnZipfTraces)
{
    const auto spec = model::makeCacheStudySpec();
    for (const std::uint64_t seed : {17ull, 99ull}) {
        for (const double skew : {0.6, 0.8}) {
            const auto trace = zipfTrace(spec, skew, seed);
            const auto universe =
                workload::traceFootprint(spec, trace).universe_bytes;
            for (const auto policy : {Policy::Lru, Policy::Lfu,
                                      Policy::TwoQueue, Policy::Arc}) {
                for (const double f : kBudgets) {
                    const double plain =
                        hitRate(spec, trace, universe, policy, f);
                    const double filtered =
                        hitRate(spec, trace, universe, policy, f,
                                Admission::TinyLfu);
                    EXPECT_GE(filtered, plain - 0.002)
                        << cache::policyName(policy) << " skew=" << skew
                        << " f=" << f << " seed=" << seed;
                }
            }
        }
    }
}

/**
 * The W-TinyLFU property from the issue: on drifting-window traces —
 * where the plain doorkeeper measurably hurts (every fresh row pays the
 * admission lag, and the window drifts a fresh row in every
 * kDriftStride accesses) — the LRU admission window plus the adaptive
 * climber recover the unfiltered hit rate to within 3% absolute, while
 * plain TinyLFU stays far behind. Not-worse on the drifting trace is
 * exactly what the ROADMAP said the old property tests merely
 * "tolerated".
 */
TEST(WTinyLfuProperty, NotWorseOnDriftingWindowTraces)
{
    const auto spec = model::makeCacheStudySpec();
    for (const double recency : {1.0, 0.5}) {
        const auto trace = driftTrace(spec, recency);
        const auto universe =
            workload::traceFootprint(spec, trace).universe_bytes;
        for (const double f : {0.1, 0.2, 0.4}) {
            const double plain =
                hitRate(spec, trace, universe, Policy::Lru, f);
            const double doorkeeper = hitRate(
                spec, trace, universe, Policy::Lru, f, Admission::TinyLfu);
            const double windowed = hitRate(
                spec, trace, universe, Policy::Lru, f, Admission::WTinyLfu);
            // Not worse than no admission (the lag is gone)...
            EXPECT_GE(windowed, plain - 0.03)
                << "recency=" << recency << " f=" << f;
            // ...and decisively better than the bare doorkeeper.
            EXPECT_GE(windowed, doorkeeper + 0.02)
                << "recency=" << recency << " f=" << f
                << " doorkeeper=" << doorkeeper << " windowed=" << windowed;
        }
    }
}

/** The window must not give back the doorkeeper's Zipf win either. */
TEST(WTinyLfuProperty, StaysCloseOnZipfTraces)
{
    const auto spec = model::makeCacheStudySpec();
    for (const std::uint64_t seed : {17ull, 99ull}) {
        const auto trace = zipfTrace(spec, 0.8, seed);
        const auto universe =
            workload::traceFootprint(spec, trace).universe_bytes;
        for (const auto policy : {Policy::Lru, Policy::Arc}) {
            for (const double f : kBudgets) {
                const double plain =
                    hitRate(spec, trace, universe, policy, f);
                const double windowed = hitRate(spec, trace, universe,
                                                policy, f,
                                                Admission::WTinyLfu);
                EXPECT_GE(windowed, plain - 0.03)
                    << cache::policyName(policy) << " f=" << f
                    << " seed=" << seed;
            }
        }
    }
}

TEST(TinyLfuProperty, FiltersOneHitWondersUnderPressure)
{
    const auto spec = model::makeCacheStudySpec();
    // The mixed trace's drifting window is full of first-touch rows: the
    // doorkeeper must actually veto some admissions (and the veto count
    // must be visible in the stats), while the unfiltered replay vetoes
    // nothing.
    const auto trace = driftTrace(spec, 0.5);
    const auto universe =
        workload::traceFootprint(spec, trace).universe_bytes;
    const auto cap =
        static_cast<std::int64_t>(0.1 * static_cast<double>(universe));
    const auto plain =
        cache::replayTrace(spec, trace, Policy::Lru, cap, 0.5);
    const auto filtered = cache::replayTrace(spec, trace, Policy::Lru, cap,
                                             0.5, Admission::TinyLfu);
    EXPECT_EQ(plain.total.admission_rejects, 0);
    EXPECT_GT(filtered.total.admission_rejects, 0);
    // Vetoed misses are still misses: counters stay conserved.
    EXPECT_EQ(filtered.total.accesses,
              filtered.total.hits + filtered.total.misses);
}

/** Budget + ghost-list invariants hold after EVERY access, not just at
 *  the end of a replay. */
TEST(CacheInvariants, BudgetAndGhostBoundsHoldThroughout)
{
    const auto spec = model::makeCacheStudySpec();
    const auto trace = driftTrace(spec, 0.5);
    const auto row_bytes = spec.tables[0].storedRowBytes();
    const std::int64_t cap = 64 * 1024;

    for (const auto policy :
         {Policy::Lru, Policy::Lfu, Policy::TwoQueue, Policy::Arc}) {
        testutil::NumberedCache c(cache::makeCache(policy, cap));
        std::int64_t max_used = 0, max_ghost = 0;
        for (const auto &r : trace.records()) {
            c.access(r.table_id, r.row, row_bytes);
            max_used = std::max(max_used, c->usedBytes());
            max_ghost = std::max(max_ghost, c->ghostBytes());
        }
        EXPECT_LE(max_used, cap) << cache::policyName(policy);
        if (policy == Policy::TwoQueue) {
            EXPECT_LE(max_ghost, cap / 2);
        }
        if (policy == Policy::Arc) {
            EXPECT_LE(max_ghost, 2 * cap);
        }
        // The stats identity holds for every policy.
        EXPECT_EQ(c->stats().accesses,
                  c->stats().hits + c->stats().misses);
    }
}

TEST(TinyLfuSketch, CountsSaturateAndHalvingDecaysThem)
{
    cache::TinyLfuFilter sketch;
    const std::uint64_t cold = cache::packRowKey(7, 777);
    const std::uint64_t hot = cache::packRowKey(0, 42);
    const std::uint64_t filler = cache::packRowKey(1, 7);

    // A never-seen key estimates 0 and is refused admission.
    EXPECT_EQ(sketch.estimate(cold), 0);
    EXPECT_FALSE(sketch.admit(cold));

    // A hot key hammered far past the 4-bit range never estimates
    // above 15 (saturation), no matter the access count.
    for (int i = 0; i < 900; ++i) {
        sketch.onAccess(hot);
        ASSERT_LE(sketch.estimate(hot), 15);
    }
    EXPECT_EQ(sketch.estimate(hot), 15);
    EXPECT_TRUE(sketch.admit(hot));

    // Stop touching the hot key; after two aging periods its estimate
    // has halved twice (15 -> 7 -> 3): the sketch tracks the recent
    // window, not all of history. The filler hammers one other key, so
    // the hot key's counters see no collisions and decay exactly.
    const std::uint64_t agings_before = sketch.agings();
    for (std::uint64_t i = 0; i < 2 * cache::TinyLfuFilter::kSamplePeriod;
         ++i)
        sketch.onAccess(filler);
    EXPECT_EQ(sketch.agings(), agings_before + 2);
    EXPECT_EQ(sketch.estimate(hot), 3);
    // Halving keeps each 4-bit counter inside its own nibble: the filler
    // saturated again after its last halving, and a key never touched
    // still estimates zero.
    EXPECT_EQ(sketch.estimate(filler), 15);
    EXPECT_EQ(sketch.estimate(cold), 0);
}

/** The sketch's layout, pinned: a seeded Zipf stream over a key grid
 *  that reaches both ends of packRowKey()'s domain, then an FNV digest
 *  of every grid key's estimate and the halving count. The slot hash,
 *  the nibble packing, the conservative increment and the aging all
 *  feed it. */
TEST(TinyLfuSketch, LayoutDigestIsPinned)
{
    constexpr std::int64_t kRowLimit = std::int64_t{1} << 48;
    std::vector<std::uint64_t> grid;
    for (const int table : {0, 1, 2, 3, 65535})
        for (std::int64_t r = 0; r < 1024; ++r) {
            grid.push_back(cache::packRowKey(table, r));
            grid.push_back(cache::packRowKey(table, kRowLimit - 1 - r));
        }
    cache::TinyLfuFilter sketch;
    const stats::ZipfSampler zipf(grid.size(), 1.1);
    stats::Rng rng(47);
    for (std::uint64_t i = 0;
         i < 3 * cache::TinyLfuFilter::kSamplePeriod + 20011; ++i)
        sketch.onAccess(grid[zipf.sample(rng)]);
    stats::Fnv fnv;
    for (const std::uint64_t key : grid)
        fnv.add(sketch.estimate(key));
    fnv.add(static_cast<std::int64_t>(sketch.agings()));
    EXPECT_EQ(fnv.h, 0xf2cffb5f13c771a2ULL);
}

TEST(AdmissionWrapper, DelegatesResidency)
{
    testutil::NumberedCache cache(cache::makeCacheWithAdmission(
        Policy::TwoQueue, 4096, Admission::TinyLfu));
    EXPECT_EQ(cache->capacityBytes(), 4096);
    // Free space: even a first-touch row is admitted (no pressure).
    EXPECT_FALSE(cache.access(0, 1, 128));
    EXPECT_TRUE(cache.contains(0, 1));
    EXPECT_TRUE(cache.access(0, 1, 128));
    EXPECT_EQ(cache->stats().hits, 1);
    EXPECT_EQ(cache->stats().accesses, 2);
}

/** A budget of zero or below holds nothing under every admission: the
 *  W-TinyLFU window never takes more bytes than the total, at
 *  construction or when setCapacityBytes() re-splits the budget. */
TEST(AdmissionWrapper, NoBudgetHoldsNothing)
{
    // Three accesses: the doorkeeper has seen the row enough to admit it.
    const auto holdsNothing = [](testutil::NumberedCache &cache) {
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(cache.access(0, 1, 1));
        EXPECT_FALSE(cache.contains(0, 1));
        EXPECT_EQ(cache->residentRows(), 0u);
        EXPECT_EQ(cache->usedBytes(), 0);
    };
    for (const auto policy :
         {Policy::Lru, Policy::Lfu, Policy::TwoQueue, Policy::Arc})
        for (const auto admission :
             {Admission::None, Admission::TinyLfu, Admission::WTinyLfu})
            for (const std::int64_t budget : {0, -64}) {
                SCOPED_TRACE(cache::policyName(policy) + "/" +
                             cache::admissionName(admission) + " budget " +
                             std::to_string(budget));
                testutil::NumberedCache cache(
                    cache::makeCacheWithAdmission(policy, budget, admission));
                EXPECT_EQ(cache->capacityBytes(), 0);
                holdsNothing(cache);
            }
    testutil::NumberedCache cache(
        cache::makeCacheWithAdmission(Policy::Lru, 4096, Admission::WTinyLfu));
    cache->setCapacityBytes(0);
    EXPECT_EQ(cache->capacityBytes(), 0);
    holdsNothing(cache);
}

} // namespace
