/**
 * @file
 * Unit tests for the online-analysis half of the observability layer:
 * the rolling histogram window (windowed quantiles via bucket merge,
 * O(1) slot-reuse eviction, stale-sample drops), the SLO burn-rate
 * monitor's alert lifecycle (pending/firing/cancelled/resolved,
 * multi-window gating, hysteresis, budget accounting), and the
 * EWMA+MAD robust z-score detector with its ground-truth scoring
 * harness against seeded burst overlays.
 */
#include <gtest/gtest.h>

#include <cmath>
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

TEST(RollingHistogram, WindowedQuantileTracksTheLiveBuckets)
{
    obs::RollingHistogram h({10.0, 5}, /*sub_bucket_bits=*/5);
    // 100 old samples at value 1000, then 100 recent at 2000.
    for (int i = 0; i < 100; ++i)
        h.observe(0.5, 1000);
    for (int i = 0; i < 100; ++i)
        h.observe(9.5, 2000);
    EXPECT_EQ(h.count(9.5), 200u);
    // Once the old bucket expires only the 2000s remain.
    EXPECT_EQ(h.count(11.5), 100u);
    const double p50 = h.valueAtQuantile(11.5, 0.5);
    EXPECT_GE(p50, 2000.0 * (1.0 - 1.0 / 32.0));
    EXPECT_LE(p50, 2000.0 * (1.0 + 1.0 / 32.0));
    // Empty window reports the sentinel.
    EXPECT_DOUBLE_EQ(h.valueAtQuantile(1000.0, 0.99, -1.0), -1.0);
    EXPECT_EQ(h.merged(11.5).count(), 100u);
}

// After a gap many horizons long every slot has expired; the next
// observe recycles the slot its period maps to in place.
TEST(RollingHistogram, LongGapEmptiesTheWindowAndTheSlotIsReused)
{
    obs::RollingHistogram h({/*horizon_s=*/10.0, /*buckets=*/5},
                            /*sub_bucket_bits=*/5);
    for (int i = 0; i < 10; ++i)
        h.observe(static_cast<double>(i) + 0.25, 1000 + i);
    // At t=15 the live buckets cover [6, 16): samples 6..9 remain.
    EXPECT_EQ(h.count(15.0), 4u);
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
    obs::RollingHistogram h({10.0, 5}, /*sub_bucket_bits=*/5);
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
    obs::RollingHistogram h({10.0, 5}, /*sub_bucket_bits=*/5);
    h.observe(21.0, 2000); // period 10, slot 0
    h.observe(1.0, 9999);  // period 0: same slot, two cycles stale
    EXPECT_EQ(h.count(21.0), 1u);
    EXPECT_EQ(h.droppedStale(), 1u);
    h.observe(19.0, 3000); // period 9: late but live — kept
    EXPECT_EQ(h.count(21.0), 2u);
    EXPECT_EQ(h.droppedStale(), 1u);
}

// ---------------------------------------------------------------------------
// SloMonitor: burn-rate alert lifecycle.
// ---------------------------------------------------------------------------

/** Small-window objective so ticks at 1 Hz exercise eviction. */
obs::SloObjective
tinyObjective(int pending_ticks = 1, int resolve_ticks = 2)
{
    obs::SloObjective o;
    o.name = "latency";
    o.budget_fraction = 0.01;
    o.fast_horizon_s = 4.0;
    o.slow_horizon_s = 8.0;
    o.fast_burn_threshold = 4.0;
    o.slow_burn_threshold = 2.0;
    o.pending_ticks = pending_ticks;
    o.resolve_ticks = resolve_ticks;
    o.resolve_fraction = 0.5;
    o.buckets = 8;
    return o;
}

TEST(SloMonitor, GoodTrafficNeverAlerts)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    for (int t = 0; t < 20; ++t) {
        m.record(id, t + 0.5, 100, 0);
        EXPECT_TRUE(m.evaluate(t + 0.5).empty());
    }
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
    EXPECT_FALSE(m.anyFiring());
    EXPECT_DOUBLE_EQ(m.status(id).fast_burn, 0.0);
    EXPECT_DOUBLE_EQ(m.status(id).budgetConsumed(0.01), 0.0);
}

TEST(SloMonitor, PendingFiringResolvedLifecycle)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective(/*pending_ticks=*/2));
    // Build an unblemished history, then a sustained 20%-bad burst.
    // Burn rates are count-weighted over the whole window, so the
    // breach ticks must carry enough bad events to dominate the good
    // history still inside the fast window (3x90 good + 100 mixed with
    // 20 bad ~ 5.4% bad = 5.4x burn at a 1% budget).
    double t = 0.5;
    for (int i = 0; i < 8; ++i, t += 1.0) {
        m.record(id, t, 90, 0);
        EXPECT_TRUE(m.evaluate(t).empty());
    }
    // Breach tick 1: Pending.
    m.record(id, t, 80, 20);
    auto ev = m.evaluate(t);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Pending);
    EXPECT_GT(ev[0].fast_burn, 4.0);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Pending);
    t += 1.0;
    // Breach tick 2: Firing.
    m.record(id, t, 80, 20);
    ev = m.evaluate(t);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Firing);
    EXPECT_TRUE(m.anyFiring());
    t += 1.0;
    // Recovery: the bad counts evict after the slow horizon; the alert
    // resolves only after resolve_ticks clear evaluations.
    std::vector<obs::AlertEvent> resolved;
    for (int i = 0; i < 12; ++i, t += 1.0) {
        m.record(id, t, 100, 0);
        for (const auto &e : m.evaluate(t))
            resolved.push_back(e);
    }
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].transition, obs::AlertTransition::Resolved);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
    EXPECT_FALSE(m.anyFiring());
    // The cumulative log holds the full lifecycle in order.
    ASSERT_EQ(m.events().size(), 3u);
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Pending), 1);
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Firing), 1);
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Resolved), 1);
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Cancelled), 0);
}

TEST(SloMonitor, BlipIsCancelledBeforeFiring)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective(/*pending_ticks=*/3));
    double t = 0.5;
    for (int i = 0; i < 8; ++i, t += 1.0) {
        m.record(id, t, 90, 0);
        m.evaluate(t);
    }
    m.record(id, t, 80, 20);
    auto ev = m.evaluate(t);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Pending);
    t += 1.0;
    // One good tick dilutes the fast window below threshold: the
    // pending alert cancels without ever firing.
    for (int i = 0; i < 6; ++i, t += 1.0) {
        m.record(id, t, 1000, 0);
        for (const auto &e : m.evaluate(t)) {
            EXPECT_EQ(e.transition, obs::AlertTransition::Cancelled);
        }
    }
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Cancelled), 1);
    EXPECT_EQ(m.transitionCount(obs::AlertTransition::Firing), 0);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
}

TEST(SloMonitor, SlowWindowGatesFastSpikes)
{
    // A short fast-window spike over a long clean slow window must NOT
    // alert: that is the entire point of the multi-window rule.
    obs::SloObjective o = tinyObjective();
    o.slow_horizon_s = 32.0;
    o.buckets = 32;
    obs::SloMonitor m;
    const int id = m.addObjective(o);
    double t = 0.5;
    for (int i = 0; i < 30; ++i, t += 1.0) {
        m.record(id, t, 1000, 0);
        m.evaluate(t);
    }
    // One heavy bad tick: the fast window's 6%+ bad fraction spikes the
    // fast burn past threshold while the 30-tick slow window dilutes
    // the same 200 bad events to a burn under 1.
    m.record(id, t, 0, 200);
    const auto ev = m.evaluate(t);
    EXPECT_TRUE(ev.empty());
    EXPECT_GT(m.status(id).fast_burn, 4.0);
    EXPECT_LT(m.status(id).slow_burn, 2.0);
    EXPECT_EQ(m.status(id).state, obs::AlertState::Inactive);
}

TEST(SloMonitor, HysteresisBandNeitherResolvesNorReFires)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective(/*pending_ticks=*/1,
                                                /*resolve_ticks=*/1));
    double t = 0.5;
    // Drive straight to Firing (pending_ticks=1 emits Pending+Firing in
    // one evaluation).
    m.record(id, t, 80, 20);
    const auto ev = m.evaluate(t);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].transition, obs::AlertTransition::Pending);
    EXPECT_EQ(ev[1].transition, obs::AlertTransition::Firing);
    t += 1.0;
    // Park the burn in the hysteresis band: below the fire threshold
    // (4x) yet above resolve_fraction * threshold (2x). ~3% bad at
    // budget 1% is a 3x fast burn.
    for (int i = 0; i < 6; ++i, t += 1.0) {
        m.record(id, t, 97, 3);
        EXPECT_TRUE(m.evaluate(t).empty()) << i;
        EXPECT_EQ(m.status(id).state, obs::AlertState::Firing) << i;
    }
    const double burn = m.status(id).fast_burn;
    EXPECT_LT(burn, 4.0);
    EXPECT_GT(burn, 2.0);
}

TEST(SloMonitor, BudgetConsumedCountsCumulativeBadEvents)
{
    obs::SloMonitor m;
    const int id = m.addObjective(tinyObjective());
    m.record(id, 0.5, 990, 10);
    m.evaluate(0.5);
    // 10 bad of 1000 events at a 1% budget: exactly consumed.
    EXPECT_DOUBLE_EQ(m.status(id).budgetConsumed(0.01), 1.0);
    m.record(id, 1.5, 0, 10);
    m.evaluate(1.5);
    EXPECT_GT(m.status(id).budgetConsumed(0.01), 1.0);
    EXPECT_EQ(m.status(id).bad_total, 20u);
}

TEST(SloMonitor, IdenticalStreamsProduceIdenticalEventLogs)
{
    const auto feed = [](obs::SloMonitor &m, int id) {
        double t = 0.5;
        for (int i = 0; i < 30; ++i, t += 1.0) {
            const bool bursty = i >= 10 && i < 16;
            m.record(id, t, 95,
                     bursty ? 12 : (i % 7 == 0 ? 1 : 0));
            m.evaluate(t);
        }
    };
    obs::SloMonitor a, b;
    const int ia = a.addObjective(tinyObjective(2));
    const int ib = b.addObjective(tinyObjective(2));
    feed(a, ia);
    feed(b, ib);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].t_s, b.events()[i].t_s);
        EXPECT_EQ(a.events()[i].transition, b.events()[i].transition);
        EXPECT_EQ(a.events()[i].fast_burn, b.events()[i].fast_burn);
        EXPECT_EQ(a.events()[i].slow_burn, b.events()[i].slow_burn);
    }
    EXPECT_GT(a.events().size(), 0u);
}

TEST(SloMonitor, RejectsDegenerateBudgets)
{
    obs::SloMonitor m;
    obs::SloObjective o = tinyObjective();
    o.budget_fraction = 0.0;
    EXPECT_THROW(m.addObjective(o), std::invalid_argument);
    o.budget_fraction = 1.5;
    EXPECT_THROW(m.addObjective(o), std::invalid_argument);
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
