/**
 * @file
 * Unit tests for the online-analysis half of the observability layer:
 * the rolling histogram window (windowed quantiles equal to those of
 * the merged live buckets, O(1) slot-reuse eviction, stale-sample
 * drops), the SLO burn-rate monitor's alert lifecycle over epoch
 * windows (pending+firing/resolved, window membership, multi-window
 * gating, hysteresis, budget accounting, late records), and the
 * EWMA+MAD robust z-score detector with its ground-truth scoring
 * harness against seeded burst overlays.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/study.h"
#include "obs/detect.h"
#include "obs/slo_monitor.h"
#include "obs/timeseries.h"
#include "workload/diurnal.h"

namespace {

using namespace dri;

// ---------------------------------------------------------------------------
// RollingHistogram.
// ---------------------------------------------------------------------------

// An 8-second horizon splits into 1-second buckets: period p is [p, p+1).

TEST(RollingHistogram, WindowedQuantileTracksTheLiveBuckets)
{
    obs::RollingHistogram h(8.0);
    // 100 old samples at value 1000, then 100 recent at 2000.
    for (int i = 0; i < 100; ++i)
        h.observe(0.5, 1000);
    for (int i = 0; i < 100; ++i)
        h.observe(7.5, 2000);
    EXPECT_EQ(h.count(7.5), 200u);
    // Once the old bucket expires only the 2000s remain.
    EXPECT_EQ(h.count(8.5), 100u);
    const double p50 = h.valueAtQuantile(8.5, 0.5);
    EXPECT_GE(p50, 2000.0 * (1.0 - 1.0 / 32.0));
    EXPECT_LE(p50, 2000.0 * (1.0 + 1.0 / 32.0));
    // Empty window reports the sentinel.
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(1000.0, 0.99, -1.0), -1.0);
    EXPECT_EQ(h.merged(8.5).count(), 100u);
}

// After a gap many horizons long every slot has expired; the next
// observe recycles the slot its period maps to in place.
TEST(RollingHistogram, LongGapEmptiesTheWindowAndTheSlotIsReused)
{
    obs::RollingHistogram h(8.0);
    for (int i = 0; i < 10; ++i)
        h.observe(static_cast<double>(i) + 0.25, 1000 + i);
    // At t=12 the live buckets cover [5, 13): samples 5..9 remain.
    EXPECT_EQ(h.count(12.0), 5u);
    EXPECT_EQ(h.count(1000.0), 0u);
    h.observe(1000.0, 42);
    EXPECT_EQ(h.count(1000.0), 1u);
    EXPECT_EQ(h.droppedStale(), 0u);
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(1000.0, 0.5), 42.0);
}

// A lone sample answers quantile queries while its bucket is live and
// leaves the window empty once the horizon has passed it.
TEST(RollingHistogram, SingleSampleExpiresWithTheHorizon)
{
    obs::RollingHistogram h(8.0);
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(5.0, 0.5, -1.0), -1.0);
    h.observe(1.0, 7);
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(2.0, 0.5, -1.0), 7.0);
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(100.0, 0.5, -1.0), -1.0);
}

// Oracle regression: an out-of-order sample from an *older ring cycle*
// of the same slot must not wipe the live bucket. A `period != p`
// recycle test would reset the slot to the old period, destroying the
// live sample AND parking the stale one where no query counts it.
TEST(RollingHistogram, StaleObservationDoesNotWipeTheLiveBucket)
{
    obs::RollingHistogram h(8.0);
    h.observe(17.0, 2000); // period 17, slot 1
    h.observe(1.0, 9999);  // period 1: same slot, two cycles stale
    EXPECT_EQ(h.count(17.0), 1u);
    EXPECT_EQ(h.droppedStale(), 1u);
    h.observe(15.0, 3000); // period 15: late but live — kept
    EXPECT_EQ(h.count(17.0), 2u);
    EXPECT_EQ(h.droppedStale(), 1u);
}

TEST(RollingHistogram, RejectsANonPositiveHorizon)
{
    EXPECT_THROW(obs::RollingHistogram(0.0), std::invalid_argument);
    EXPECT_THROW(obs::RollingHistogram(-1.0), std::invalid_argument);
}

// The windowed quantile equals the quantile of the merged live buckets
// bit for bit, over seeded out-of-order streams that cross many slots
// and wrap the ring several times, read at each sample's own (possibly
// late) time so every subset of live slots comes up, and past the last
// sample as the window drains.
TEST(RollingHistogram, WindowedQuantileEqualsTheMergedHistogram)
{
    std::mt19937_64 rng(0x7a11);
    obs::RollingHistogram h(/*horizon_s=*/1.0);
    double clock = 0.0;
    std::size_t reads = 0;
    const auto check = [&](double t) {
        const obs::Histogram merged = h.merged(t);
        for (const double q : {0.0, 1e-9, 0.5, 0.99, 1.0}) {
            const double want =
                merged.count() > 0 ? merged.valueAtQuantile(q) : -1.0;
            EXPECT_EQ(h.valueAtQuantile(t, q, -1.0), want)
                << "t " << t << " q " << q;
        }
        ++reads;
    };
    for (int i = 0; i < 2000; ++i) {
        clock += static_cast<double>(rng() % 1000) * 2e-6; // ~1 ms
        // A quarter of the samples land late, some by more than a
        // horizon (dropped as stale).
        const double late =
            rng() % 4 == 0 ? static_cast<double>(rng() % 1200) * 1e-3 : 0.0;
        const double t = std::max(0.0, clock - late);
        h.observe(t, static_cast<std::int64_t>(rng() >> (46 + rng() % 18)));
        if (i % 5 == 0)
            check(t);
    }
    for (double t = clock; t < clock + 1.2; t += 0.1)
        check(t);
    EXPECT_GT(h.droppedStale(), 0u);
    EXPECT_GT(reads, 40u);
}

// The window's read path, Histogram::quantileOfSum, answers the merged
// parts' quantile bit for bit at every sub-bucket width from octave
// buckets to the finest, over seeded subsets of eight parts.
TEST(RollingHistogram, QuantileOfSumEqualsTheMergedPartsAtEveryWidth)
{
    std::mt19937_64 rng(0x7a11);
    for (const unsigned bits : {0u, 5u, 16u}) {
        std::vector<obs::Histogram> parts(8, obs::Histogram(bits));
        std::size_t reads = 0;
        for (int i = 0; i < 2000; ++i) {
            // Up to 2^18: two octaves past the finest geometry's 2^16
            // unit buckets.
            parts[rng() % parts.size()].observe(
                static_cast<std::int64_t>(rng() >> (46 + rng() % 18)));
            if (i % (bits == 16 ? 61 : 5) != 0) // 16 bits: MiB-sized merges
                continue;
            const auto live = rng() % 256; // which parts the sum holds
            const auto sum = [&](auto &&visit) {
                for (std::size_t k = 0; k < parts.size(); ++k)
                    if ((live >> k) & 1)
                        visit(parts[k]);
            };
            obs::Histogram merged(bits);
            sum([&merged](const obs::Histogram &p) { merged.merge(p); });
            for (const double q : {0.0, 1e-9, 0.5, 0.99, 1.0}) {
                const double want =
                    merged.count() > 0 ? merged.valueAtQuantile(q) : -1.0;
                EXPECT_EQ(obs::Histogram::quantileOfSum(sum, q, -1.0), want)
                    << "bits " << bits << " i " << i << " q " << q;
            }
            ++reads;
        }
        EXPECT_GT(reads, 30u);
    }
}

// ---------------------------------------------------------------------------
// SloMonitor: burn-rate alert lifecycle.
// ---------------------------------------------------------------------------

/** Small-window objective so a few epochs exercise eviction. */
obs::SloObjective
tinyObjective(int resolve_ticks = 2)
{
    obs::SloObjective o;
    o.name = "latency";
    o.budget_fraction = 0.01;
    o.fast_epochs = 4;
    o.slow_epochs = 8;
    o.fast_burn_threshold = 4.0;
    o.slow_burn_threshold = 2.0;
    o.resolve_ticks = resolve_ticks;
    return o;
}

/** Transitions of one kind in a monitor's cumulative log. */
long
countOf(const obs::SloMonitor &m, obs::AlertTransition tr)
{
    return std::count_if(
        m.events().begin(), m.events().end(),
        [tr](const obs::AlertEvent &e) { return e.transition == tr; });
}

TEST(SloMonitor, GoodTrafficNeverAlerts)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    for (int e = 0; e < 20; ++e) {
        m.record(id, e, 100, 0);
        EXPECT_TRUE(m.evaluate(e).empty());
    }
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
    EXPECT_FALSE(m.anyFiring());
    EXPECT_DOUBLE_EQ(m.status(id).fast_burn, 0.0);
    EXPECT_DOUBLE_EQ(m.status(id).budgetConsumed(0.01), 0.0);
}

TEST(SloMonitor, PendingFiringResolvedLifecycle)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    // Build an unblemished history, then one 20%-bad epoch. Burn rates
    // are count-weighted over the whole window, so the breach epoch must
    // carry enough bad events to dominate the good history still inside
    // the fast window (3x90 good + 100 mixed with 20 bad ~ 5.4% bad =
    // 5.4x burn at a 1% budget).
    int e = 0;
    for (; e < 8; ++e) {
        m.record(id, e, 90, 0);
        EXPECT_TRUE(m.evaluate(e).empty());
    }
    // The breach fires at once: Pending, then Firing, in one evaluation.
    m.record(id, e, 80, 20);
    const auto ev = m.evaluate(e);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Pending);
    EXPECT_EQ(ev[1].transition, obs::AlertTransition::Firing);
    EXPECT_EQ(ev[1].epoch, 8);
    EXPECT_GT(ev[0].fast_burn, 4.0);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Firing);
    EXPECT_TRUE(m.anyFiring());
    // Recovery: the bad epoch leaves the slow window at epoch 16; the
    // alert resolves after resolve_ticks (2) clear evaluations.
    std::vector<obs::AlertEvent> resolved;
    for (++e; e < 21; ++e) {
        m.record(id, e, 100, 0);
        for (const auto &r : m.evaluate(e))
            resolved.push_back(r);
    }
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].transition, obs::AlertTransition::Resolved);
    EXPECT_EQ(resolved[0].epoch, 17);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
    EXPECT_FALSE(m.anyFiring());
    // The cumulative log holds the full lifecycle in order.
    ASSERT_EQ(m.events().size(), 3u);
    EXPECT_EQ(countOf(m, obs::AlertTransition::Pending), 1);
    EXPECT_EQ(countOf(m, obs::AlertTransition::Firing), 1);
    EXPECT_EQ(countOf(m, obs::AlertTransition::Resolved), 1);
}

TEST(SloMonitor, SlowWindowGatesFastSpikes)
{
    // A short fast-window spike over a long clean slow window must NOT
    // alert: that is the entire point of the multi-window rule.
    obs::SloObjective o = tinyObjective();
    o.slow_epochs = 32;
    obs::SloMonitor m;
    const int id = m.addObjective(o);
    int e = 0;
    for (; e < 30; ++e) {
        m.record(id, e, 1000, 0);
        m.evaluate(e);
    }
    // One heavy bad epoch: the fast window's 6%+ bad fraction spikes
    // the fast burn past threshold while the 30-epoch slow window
    // dilutes the same 200 bad events to a burn under 1.
    m.record(id, e, 0, 200);
    const auto ev = m.evaluate(e);
    EXPECT_TRUE(ev.empty());
    EXPECT_GT(m.status(id).fast_burn, 4.0);
    EXPECT_LT(m.status(id).slow_burn, 2.0);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
}

// With 2 fast and 6 slow epochs, one bad epoch counts in the fast burn
// for exactly 2 evaluations and in the slow burn for exactly 6, whether
// the epochs around it record good traffic or nothing at all.
TEST(SloMonitor, ABadEpochStaysInEachWindowForItsLength)
{
    for (const bool every_epoch : {true, false}) {
        obs::SloObjective o = tinyObjective();
        o.fast_epochs = 2;
        o.slow_epochs = 6;
        obs::SloMonitor m;
        const int id = m.addObjective(o);
        int fast = 0, slow = 0;
        for (int e = 0; e < 20; ++e) {
            if (e == 5)
                m.record(id, e, 90, 10);
            else if (every_epoch)
                m.record(id, e, 100, 0);
            m.evaluate(e);
            const bool in_fast = m.status(id).fast_burn > 0.0;
            const bool in_slow = m.status(id).slow_burn > 0.0;
            EXPECT_EQ(in_fast, e >= 5 && e < 7) << e << " " << every_epoch;
            EXPECT_EQ(in_slow, e >= 5 && e < 11) << e << " " << every_epoch;
            fast += in_fast ? 1 : 0;
            slow += in_slow ? 1 : 0;
        }
        EXPECT_EQ(fast, 2);
        EXPECT_EQ(slow, 6);
    }
}

TEST(SloMonitor, HysteresisBandNeitherResolvesNorReFires)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective(/*resolve_ticks=*/1));
    int e = 0;
    m.record(id, e, 80, 20);
    const auto ev = m.evaluate(e);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Pending);
    EXPECT_EQ(ev[1].transition, obs::AlertTransition::Firing);
    // Park the burn in the hysteresis band: below the fire threshold
    // (4x) yet above kResolveFraction * threshold (2x). ~3% bad at
    // budget 1% is a 3x fast burn.
    for (++e; e < 7; ++e) {
        m.record(id, e, 97, 3);
        EXPECT_TRUE(m.evaluate(e).empty()) << e;
        EXPECT_EQ(m.status(id).state, obs::AlertState::Firing) << e;
    }
    const double burn = m.status(id).fast_burn;
    EXPECT_LT(burn, 4.0);
    EXPECT_GT(burn, 2.0);
}

TEST(SloMonitor, BudgetConsumedCountsCumulativeBadEvents)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    m.record(id, 0, 990, 10);
    m.evaluate(0);
    // 10 bad of 1000 events at a 1% budget: exactly consumed.
    EXPECT_DOUBLE_EQ(m.status(id).budgetConsumed(0.01), 1.0);
    m.record(id, 1, 0, 10);
    m.evaluate(1);
    EXPECT_GT(m.status(id).budgetConsumed(0.01), 1.0);
    EXPECT_EQ(m.status(id).bad_total, 20u);
}

TEST(SloMonitor, LateRecordThrowsAndKeepsTheLiveBucket)
{
    // Regression: a record a window late shares its ring slot with the
    // newest epoch and used to wipe it (fast_burn fell 10 -> 0).
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    m.record(id, 10, 90, 10);
    m.evaluate(10);
    EXPECT_DOUBLE_EQ(m.status(id).fast_burn, 10.0);
    // Epoch 2 shares epoch 10's slot of the 8-epoch ring; 9 is merely
    // older than the newest record; a negative epoch has no slot.
    for (const int late : {2, 9, -1})
        EXPECT_THROW(m.record(id, late, 100, 0), std::invalid_argument)
            << late;
    m.evaluate(10);
    EXPECT_DOUBLE_EQ(m.status(id).fast_burn, 10.0);
    EXPECT_DOUBLE_EQ(m.status(id).slow_burn, 10.0);
    EXPECT_EQ(m.status(id).good_total, 90u);
    // Counts for the newest epoch still add up in its slot.
    m.record(id, 10, 100, 0);
    m.evaluate(10);
    EXPECT_DOUBLE_EQ(m.status(id).fast_burn, 5.0);
    EXPECT_EQ(m.status(id).good_total, 190u);
}

TEST(SloMonitor, IdenticalStreamsProduceIdenticalEventLogs)
{
    const auto feed = [](obs::SloMonitor &m, int id) {
        for (int e = 0; e < 30; ++e) {
            const bool bursty = e >= 10 && e < 16;
            m.record(id, e, 95, bursty ? 12 : (e % 7 == 0 ? 1 : 0));
            m.evaluate(e);
        }
    };
    obs::SloMonitor a, b;
    const int ia = a.addObjective(tinyObjective());
    const int ib = b.addObjective(tinyObjective());
    feed(a, ia);
    feed(b, ib);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
        EXPECT_EQ(a.events()[i].transition, b.events()[i].transition);
        EXPECT_EQ(a.events()[i].fast_burn, b.events()[i].fast_burn);
        EXPECT_EQ(a.events()[i].slow_burn, b.events()[i].slow_burn);
    }
    EXPECT_GT(a.events().size(), 0u);
}

TEST(SloMonitor, RejectsDegenerateObjectives)
{
    const auto rejects = [](const obs::SloObjective &o) {
        obs::SloMonitor m;
        EXPECT_THROW(m.addObjective(o), std::invalid_argument);
        EXPECT_EQ(m.objectiveCount(), 0u);
    };
    obs::SloObjective o = tinyObjective();
    o.budget_fraction = 0.0;
    rejects(o);
    o.budget_fraction = 1.5;
    rejects(o);
    o = tinyObjective();
    o.fast_epochs = 0;
    rejects(o);
    o = tinyObjective();
    o.slow_epochs = o.fast_epochs - 1;
    rejects(o);
    o = tinyObjective();
    o.resolve_ticks = 0;
    rejects(o);
}

// ---------------------------------------------------------------------------
// Detectors.
// ---------------------------------------------------------------------------

TEST(EwmaMadDetector, FlatStreamNeverFlags)
{
    obs::EwmaMadDetector d;
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(d.step(1.0)) << i;
    EXPECT_DOUBLE_EQ(d.lastZ(), 0.0);
    EXPECT_DOUBLE_EQ(d.level(), 1.0);
}

TEST(EwmaMadDetector, FlagsASpikeAfterWarmup)
{
    obs::EwmaMadDetector d;
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(d.step(1.0));
    EXPECT_TRUE(d.step(1.5));
    EXPECT_GT(d.lastZ(), obs::kDetectorZThreshold);
    // Contaminated learning: the flagged point barely moves the level.
    EXPECT_LT(d.level(), 1.1);
}

TEST(EwmaMadDetector, WarmupBurstDoesNotPoisonTheBaseline)
{
    // The alerting study's exact failure mode: a burst inside the
    // warmup window. Median initialization must keep the baseline at
    // the majority level so the NEXT burst still scores high.
    obs::EwmaMadDetector d; // kDetectorWarmupSamples = 4
    EXPECT_FALSE(d.step(1.15));
    EXPECT_FALSE(d.step(1.0));
    EXPECT_FALSE(d.step(1.0));
    EXPECT_FALSE(d.step(1.0));
    EXPECT_DOUBLE_EQ(d.level(), 1.0);
    EXPECT_TRUE(d.step(1.15));
    EXPECT_FALSE(d.step(1.0));
}

TEST(EwmaMadDetector, ResetForgetsEverything)
{
    obs::EwmaMadDetector d;
    for (int i = 0; i < 10; ++i)
        d.step(5.0);
    d.reset();
    EXPECT_DOUBLE_EQ(d.level(), 0.0);
    EXPECT_DOUBLE_EQ(d.lastZ(), 0.0);
    // Post-reset the warmup applies again: no flag on the first
    // samples even at a wildly different level.
    EXPECT_FALSE(d.step(100.0));
}

// ---------------------------------------------------------------------------
// Ground-truth scoring harness.
// ---------------------------------------------------------------------------

TEST(DetectionEval, ScoreFlagsCreditsLatencyAndFalsePositives)
{
    // A synthetic load model with a known burst layout; epochs with
    // bursts come from the seeded Poisson overlay, so probe the ground
    // truth instead of assuming it.
    auto study = fleet::makeFleetStudy(true);
    study.load.bursts_per_epoch = 0.4;
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const int epochs = 24;

    int first_burst = -1;
    int first_calm = -1;
    for (int e = 0; e < epochs; ++e) {
        if (load.burstCount(e) > 0 && first_burst < 0)
            first_burst = e;
        if (load.burstCount(e) == 0 && first_calm < 0)
            first_calm = e;
    }
    ASSERT_GE(first_burst, 0);
    ASSERT_GE(first_calm, 0);

    // One flag: on the first burst epoch. Credited at latency 0.
    std::vector<bool> flags(static_cast<std::size_t>(epochs), false);
    flags[static_cast<std::size_t>(first_burst)] = true;
    auto eval = obs::scoreFlags("hand", flags, load, 2);
    EXPECT_EQ(eval.detected, 1);
    EXPECT_EQ(eval.false_positives, 0);
    ASSERT_EQ(eval.latencies.size(), 1u);
    EXPECT_EQ(eval.latencies[0], 0);
    EXPECT_EQ(eval.missed, eval.episodes - 1);

    // A flag on a calm epoch with no episode start within the match
    // window behind it is a false positive.
    std::vector<bool> fp(static_cast<std::size_t>(epochs), false);
    bool placed = false;
    for (int e = 0; e < epochs && !placed; ++e) {
        bool near_burst = false;
        for (int b = std::max(0, e - 2); b <= e; ++b)
            near_burst |= load.burstCount(b) > 0;
        if (!near_burst && load.burstCount(e) == 0) {
            fp[static_cast<std::size_t>(e)] = true;
            placed = true;
        }
    }
    ASSERT_TRUE(placed);
    eval = obs::scoreFlags("hand-fp", fp, load, 2);
    EXPECT_EQ(eval.detected, 0);
    EXPECT_EQ(eval.false_positives, 1);
}

TEST(DetectionEval, EvaluateDetectorOnSeededBurstsIsCleanAndRepeatable)
{
    auto study = fleet::makeFleetStudy(true);
    study.load.bursts_per_epoch = 0.4;
    const workload::DiurnalLoadModel load(study.spec, study.load);

    obs::EwmaMadDetector d;
    const auto eval = obs::evaluateDetector(d, load, 24, 2);
    EXPECT_GT(eval.episodes, 0);
    EXPECT_GT(eval.detected, 0);
    EXPECT_EQ(eval.false_positives, 0);
    EXPECT_LE(eval.maxLatency(), 2);
    EXPECT_GT(eval.detectionRate(), 0.5);

    // evaluateDetector resets the detector: a rerun scores identically.
    const auto again = obs::evaluateDetector(d, load, 24, 2);
    EXPECT_EQ(again.detected, eval.detected);
    EXPECT_EQ(again.false_positives, eval.false_positives);
    EXPECT_EQ(again.latencies, eval.latencies);

    // A burst-free replay of the same model yields zero flags.
    study.load.bursts_per_epoch = 0.0;
    const workload::DiurnalLoadModel flat(study.spec, study.load);
    const auto none = obs::evaluateDetector(d, flat, 24, 2);
    EXPECT_EQ(none.flags, 0);
    EXPECT_EQ(none.false_positives, 0);
    EXPECT_EQ(none.episodes, 0);
    EXPECT_DOUBLE_EQ(none.detectionRate(), 1.0);
}

} // namespace
