/**
 * @file
 * Fleet control-plane tests: diurnal load model determinism, capacity
 * planner monotonicity, FleetSim ledger determinism (byte-identical
 * fingerprints across reruns at a fixed seed), reactive no-oscillation
 * on a flat trace, cooldown under a burst overlay, and reconfiguration
 * billing semantics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet_sim.h"
#include "fleet/study.h"
#include "model/generators.h"
#include "sched/capacity_search.h"
#include "stats/hash.h"
#include "stats/rng.h"
#include "workload/diurnal.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

core::ServingConfig
fleetTestServing()
{
    auto cfg = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    cfg.result_cache.enabled = true;
    return cfg;
}

workload::DiurnalLoadConfig
flatLoad(double qps)
{
    workload::DiurnalLoadConfig dl;
    dl.base_qps = qps;
    dl.amplitude = 0.0;
    dl.epochs_per_day = 12;
    return dl;
}

fleet::FleetConfig
smallFleet(int epochs)
{
    fleet::FleetConfig fc;
    fc.slo.p99_ms = 60.0;
    fc.epochs = epochs;
    fc.requests_per_epoch = 140;
    return fc;
}

/** Replays a fixed per-epoch replica schedule (billing tests). */
class ScriptedAutoscaler : public fleet::Autoscaler
{
  public:
    explicit ScriptedAutoscaler(std::vector<std::vector<int>> schedule)
        : schedule_(std::move(schedule))
    {
    }

    std::string name() const override { return "scripted"; }

    std::vector<int>
    decide(int epoch, const workload::DiurnalLoadModel &,
           const fleet::EpochObservation *) override
    {
        const auto i = std::min<std::size_t>(
            static_cast<std::size_t>(epoch), schedule_.size() - 1);
        return schedule_[i];
    }

  private:
    std::vector<std::vector<int>> schedule_;
};

// ---------------------------------------------------------------------------
// DiurnalLoadModel.
// ---------------------------------------------------------------------------

TEST(DiurnalLoad, ForecastTracksTheSinusoid)
{
    const auto spec = model::makeDrm2();
    workload::DiurnalLoadConfig dl;
    dl.base_qps = 400.0;
    dl.amplitude = 0.5;
    dl.epochs_per_day = 12;
    const workload::DiurnalLoadModel load(spec, dl);

    EXPECT_NEAR(load.forecastQps(0), 400.0, 1e-9); // midline
    EXPECT_NEAR(load.forecastQps(3), 600.0, 1e-9); // peak at quarter day
    EXPECT_NEAR(load.forecastQps(9), 200.0, 1e-9); // trough
    EXPECT_NEAR(load.peakForecastQps(), 600.0, 1e-9);
    // One full day later the profile repeats.
    EXPECT_NEAR(load.forecastQps(15), load.forecastQps(3), 1e-9);
}

TEST(DiurnalLoad, RealizedRateIsForecastPlusDeterministicBursts)
{
    const auto spec = model::makeDrm2();
    auto dl = flatLoad(300.0);
    dl.bursts_per_epoch = 1.0;
    dl.burst_multiplier = 2.0;
    dl.burst_fraction = 0.25;
    const workload::DiurnalLoadModel load(spec, dl);
    const workload::DiurnalLoadModel load2(spec, dl);

    int bursty = 0;
    for (int e = 0; e < 24; ++e) {
        EXPECT_GE(load.realizedQps(e), load.forecastQps(e) - 1e-9);
        EXPECT_EQ(load.burstCount(e), load2.burstCount(e));
        if (load.burstCount(e) > 0) {
            ++bursty;
            EXPECT_GT(load.realizedQps(e), load.forecastQps(e));
        }
    }
    EXPECT_GT(bursty, 4); // Poisson(1) over 24 epochs: bursts do happen
}

TEST(DiurnalLoad, EpochStreamsAreDeterministicAndEpochDistinct)
{
    const auto spec = model::makeDrm2();
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    const auto a = load.epochRequests(3, 50);
    const auto b = load.epochRequests(3, 50);
    const auto c = load.epochRequests(4, 50);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].content_hash, b[i].content_hash);
        EXPECT_EQ(a[i].items, b[i].items);
    }
    // Different epochs draw different streams.
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].content_hash != c[i].content_hash;
    EXPECT_TRUE(differs);
}

/**
 * A context-pool epoch stream built independently: a fresh pool seeded by
 * the model seed alone, picks from the epoch-salted stream, epoch-tagged
 * ids.
 */
std::vector<workload::Request>
freshPoolStream(const model::ModelSpec &spec,
                const workload::DiurnalLoadConfig &dl, int epoch,
                std::size_t n)
{
    const auto pool =
        workload::RequestGenerator(spec,
                                   workload::GeneratorConfig{dl.seed ^ 0x9001})
            .generate(dl.context_pool);
    stats::Rng pick(stats::mix64(
        dl.seed + 0x5eed0000ULL * static_cast<std::uint64_t>(epoch + 1)));
    std::vector<workload::Request> out;
    for (std::size_t i = 0; i < n; ++i) {
        auto req = pool[static_cast<std::size_t>(pick.uniformInt(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
        req.id = (static_cast<std::uint64_t>(epoch) << 32) | i;
        out.push_back(std::move(req));
    }
    return out;
}

void
expectSameStream(const std::vector<workload::Request> &got,
                 const std::vector<workload::Request> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "i=" << i;
        EXPECT_EQ(got[i].items, want[i].items) << "i=" << i;
        EXPECT_EQ(got[i].table_lookups, want[i].table_lookups) << "i=" << i;
        EXPECT_EQ(got[i].content_hash, want[i].content_hash) << "i=" << i;
    }
}

TEST(DiurnalLoad, ContextPoolStreamsMatchAFreshPoolInAnyEpochOrder)
{
    const auto spec = model::makeDrm2();
    auto dl = flatLoad(300.0);
    dl.epochs_per_day = 24;
    dl.context_pool = 64;
    const workload::DiurnalLoadModel load(spec, dl);
    const workload::DiurnalLoadModel copy = load;
    for (const int e : {5, 0, 5, 23}) {
        SCOPED_TRACE(testing::Message() << "e=" << e);
        const auto want = freshPoolStream(spec, dl, e, 90);
        expectSameStream(load.epochRequests(e, 90), want);
        expectSameStream(copy.epochRequests(e, 90), want);
    }
}

// ---------------------------------------------------------------------------
// CapacityPlanner.
// ---------------------------------------------------------------------------

TEST(CapacityPlanner, VectorsMonotoneInRateAndCached)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    fleet::PlannerConfig pc;
    pc.slo.p99_ms = 60.0;
    pc.planning_requests = 128;
    fleet::CapacityPlanner planner(spec, plan, fleetTestServing(), pc);

    std::vector<int> prev;
    for (const double qps : {150.0, 300.0, 450.0, 600.0}) {
        const auto vec = planner.replicaVectorFor(qps);
        ASSERT_EQ(vec.size(), static_cast<std::size_t>(plan.numShards()));
        if (!prev.empty()) {
            for (std::size_t s = 0; s < vec.size(); ++s) {
                EXPECT_GE(vec[s], prev[s]) << "qps=" << qps << " s=" << s;
            }
        }
        prev = vec;
    }
    // Plan reuse: identical and quantization-adjacent rates hit the
    // cache instead of re-simulating.
    const int computed = planner.plansComputed();
    planner.replicaVectorFor(450.0);
    planner.replicaVectorFor(448.0); // same grid point after quantization
    EXPECT_EQ(planner.plansComputed(), computed);
}

// ---------------------------------------------------------------------------
// FleetSim.
// ---------------------------------------------------------------------------

TEST(FleetSim, LedgerIsByteIdenticalAcrossReruns)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto dl = flatLoad(300.0);
    dl.amplitude = 0.4;
    dl.bursts_per_epoch = 0.5;
    const workload::DiurnalLoadModel load(spec, dl);
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(6));

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;
    fleet::ReactiveAutoscaler a({4, 4, 4, 4}, rc);
    fleet::ReactiveAutoscaler b({4, 4, 4, 4}, rc);
    const auto s1 = sim.run(a);
    const auto s2 = sim.run(b);

    ASSERT_EQ(s1.epochs.size(), s2.epochs.size());
    EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
    for (std::size_t e = 0; e < s1.epochs.size(); ++e) {
        EXPECT_EQ(s1.epochs[e].replicas, s2.epochs[e].replicas);
        EXPECT_EQ(s1.epochs[e].p99_ms, s2.epochs[e].p99_ms);
        EXPECT_EQ(s1.epochs[e].watt_hours, s2.epochs[e].watt_hours);
        EXPECT_EQ(s1.epochs[e].shed_requests, s2.epochs[e].shed_requests);
    }

    // The fingerprint is sensitive: perturbing one field flips it.
    auto mutated = s1;
    mutated.epochs[2].watt_hours += 1e-9;
    EXPECT_NE(mutated.fingerprint(), s1.fingerprint());
}

TEST(FleetSim, ReactiveHoldsSteadyOnFlatTrace)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(10));

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;
    rc.cooldown_epochs = 2;
    fleet::ReactiveAutoscaler react({4, 4, 4, 4}, rc);
    const auto s = sim.run(react);

    // From an over-provisioned seed on flat load the policy sheds
    // surplus and then HOLDS: no scale-up ever (load never grows), at
    // most a couple of downs, and a constant vector over the back half.
    EXPECT_EQ(s.sloViolationEpochs(), 0);
    EXPECT_LE(s.reconfigurations(), 3);
    for (const auto &r : s.epochs)
        EXPECT_FALSE(r.scaled_up) << "epoch " << r.epoch;
    const auto &settled = s.epochs[s.epochs.size() / 2].replicas;
    for (std::size_t e = s.epochs.size() / 2; e < s.epochs.size(); ++e)
        EXPECT_EQ(s.epochs[e].replicas, settled) << "epoch " << e;
}

TEST(FleetSim, ReactiveCooldownHoldsUnderBurstOverlay)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto dl = flatLoad(300.0);
    dl.bursts_per_epoch = 1.2;
    dl.burst_multiplier = 2.0;
    dl.burst_fraction = 0.3;
    const workload::DiurnalLoadModel load(spec, dl);
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(12));

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;
    rc.cooldown_epochs = 3;
    fleet::ReactiveAutoscaler react({3, 3, 3, 3}, rc);
    const auto s = sim.run(react);

    // Bursts yank utilization around; the cooldown must keep every
    // scale-DOWN at least cooldown_epochs after the previous
    // reconfiguration of any kind (scale-ups are exempt by design:
    // capacity emergencies outrank churn budgets).
    int last_reconfig = -1000;
    for (const auto &r : s.epochs) {
        if (!r.reconfigured)
            continue;
        if (r.scaled_down && !r.scaled_up) {
            EXPECT_GT(r.epoch - last_reconfig, rc.cooldown_epochs)
                << "scale-down at epoch " << r.epoch
                << " violated the cooldown";
        }
        last_reconfig = r.epoch;
    }
}

TEST(FleetSim, ScaleUpBillsTheNewPlanAndFlagsTheWindow)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(250.0));
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(3));

    ScriptedAutoscaler policy({{2, 2, 2, 2}, {2, 2, 2, 2}, {4, 4, 4, 4}});
    const auto s = sim.run(policy);
    ASSERT_EQ(s.epochs.size(), 3u);

    EXPECT_FALSE(s.epochs[0].reconfigured); // first epoch: nothing prior
    EXPECT_FALSE(s.epochs[1].reconfigured); // unchanged vector
    EXPECT_TRUE(s.epochs[2].reconfigured);
    EXPECT_TRUE(s.epochs[2].scaled_up);
    EXPECT_FALSE(s.epochs[2].scaled_down);

    // Billing: the decided vector is charged for the whole epoch — a
    // scale-up pays for booting machines from the moment they are
    // requisitioned (old plan's machines are a subset on a pure up).
    EXPECT_DOUBLE_EQ(s.epochs[1].machine_hours, 1.0 + 8.0);
    EXPECT_DOUBLE_EQ(s.epochs[2].machine_hours, 1.0 + 16.0);

    // The dc-costed plan mirrors the decided vector and carries power.
    EXPECT_EQ(s.epochs[2].plan.totalReplicas(), 16);
    EXPECT_GT(s.epochs[2].planPowerWatts(), 0.0);
    EXPECT_GT(s.epochs[2].planMemoryBytes(), 0);

    // Steady quantiles exist alongside whole-epoch quantiles, and the
    // whole-epoch view includes the reconfiguration window.
    EXPECT_GT(s.epochs[2].steady_p99_ms, 0.0);
    EXPECT_GT(s.epochs[2].p99_ms, 0.0);
}

/**
 * The telemetry side-ledger is deterministic and stays out of the
 * simulation ledger: a rerun reproduces both fingerprints, mutating the
 * telemetry leaves fingerprint() unchanged, and telemetryFingerprint()
 * is sensitive to its own content.
 */
TEST(FleetSim, TelemetryLedgerIsDeterministicAndSeparate)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto dl = flatLoad(300.0);
    dl.amplitude = 0.4;
    dl.bursts_per_epoch = 0.5;
    const workload::DiurnalLoadModel load(spec, dl);

    fleet::ReactiveConfig rc;
    rc.slo.p99_ms = 60.0;

    fleet::FleetSim sim(spec, plan, fleetTestServing(), load, smallFleet(6));
    fleet::ReactiveAutoscaler a({4, 4, 4, 4}, rc);
    const auto monitored = sim.run(a);
    ASSERT_EQ(monitored.telemetry.epochs.size(), monitored.epochs.size());

    fleet::ReactiveAutoscaler c({4, 4, 4, 4}, rc);
    const auto rerun = sim.run(c);
    EXPECT_EQ(rerun.fingerprint(), monitored.fingerprint());
    EXPECT_EQ(rerun.telemetryFingerprint(),
              monitored.telemetryFingerprint());
    // The telemetry fingerprint is sensitive to its own content, and
    // the simulation fingerprint is blind to it.
    auto mutated = monitored;
    mutated.telemetry.epochs[1].latency_fast_burn += 1e-9;
    EXPECT_NE(mutated.telemetryFingerprint(),
              monitored.telemetryFingerprint());
    EXPECT_EQ(mutated.fingerprint(), monitored.fingerprint());
}

/**
 * The burn-rate policy inherits the watermark policies' contract: on a
 * flat trace with no alerts it never scales up, settles, and holds.
 */
TEST(FleetSim, BurnRateHoldsSteadyOnFlatTrace)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(10));

    fleet::ReactiveConfig brc;
    brc.slo.p99_ms = 60.0;
    brc.cooldown_epochs = 2;
    fleet::BurnRateAutoscaler burn({4, 4, 4, 4}, brc);
    const auto s = sim.run(burn);

    EXPECT_EQ(s.policy, "burn-rate");
    EXPECT_EQ(s.sloViolationEpochs(), 0);
    EXPECT_LE(s.reconfigurations(), 3);
    for (const auto &r : s.epochs)
        EXPECT_FALSE(r.scaled_up) << "epoch " << r.epoch;
    const auto &settled = s.epochs[s.epochs.size() / 2].replicas;
    for (std::size_t e = s.epochs.size() / 2; e < s.epochs.size(); ++e)
        EXPECT_EQ(s.epochs[e].replicas, settled) << "epoch " << e;
    // With the SLO comfortably met the internal monitor never fired.
    EXPECT_EQ(burn.monitor().transitionCount(
                  obs::AlertTransition::Firing),
              0);
}

/**
 * Deterministic replay extends to the burn-rate policy: its internal
 * SLO monitor consumes the same observations on every rerun, so the
 * ledger fingerprint and the monitor's event log both reproduce.
 */
TEST(FleetSim, BurnRateReplaysByteIdentically)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto dl = flatLoad(300.0);
    dl.amplitude = 0.4;
    dl.bursts_per_epoch = 0.8;
    const workload::DiurnalLoadModel load(spec, dl);
    fleet::FleetSim sim(spec, plan, fleetTestServing(), load,
                        smallFleet(8));

    fleet::ReactiveConfig brc;
    brc.slo.p99_ms = 60.0;
    fleet::BurnRateAutoscaler p({4, 4, 4, 4}, brc);
    fleet::BurnRateAutoscaler q({4, 4, 4, 4}, brc);
    const auto s1 = sim.run(p);
    const auto s2 = sim.run(q);
    EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
    ASSERT_EQ(p.monitor().events().size(), q.monitor().events().size());
    for (std::size_t i = 0; i < p.monitor().events().size(); ++i) {
        EXPECT_EQ(p.monitor().events()[i].t_s,
                  q.monitor().events()[i].t_s);
        EXPECT_EQ(p.monitor().events()[i].transition,
                  q.monitor().events()[i].transition);
    }
}

/** The smoke-sized canonical study stays deterministic end to end. */
TEST(FleetStudy, SmokeStudyIsDeterministic)
{
    const auto study = fleet::makeFleetStudy(true);
    const workload::DiurnalLoadModel load(study.spec, study.load);
    fleet::FleetSim sim(study.spec, study.plan, study.serving, load,
                        study.fleet);

    const auto inputs = fleet::studyAutoscalerInputs(study, load);
    const auto pred = fleet::makeAutoscaler("predictive", inputs);
    const auto s1 = sim.run(*pred);
    const auto s2 = sim.run(*pred);
    EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
    EXPECT_EQ(s1.epochs.size(),
              static_cast<std::size_t>(study.fleet.epochs));
    // Outside declared reconfiguration windows the smoke study meets
    // its SLO everywhere (whole-epoch checks may trip inside a window —
    // that is exactly what the window declares).
    EXPECT_EQ(s1.steadySloViolationEpochs(), 0);
}

// ---------------------------------------------------------------------------
// Injected faults at the fleet level.
// ---------------------------------------------------------------------------

TEST(FleetFaults, EmptyScheduleIsPureAndCrashRunsAreDeterministic)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(320.0));
    const auto fc = smallFleet(6);

    ScriptedAutoscaler p1({{2, 2, 2, 2}}), p2({{2, 2, 2, 2}});
    ScriptedAutoscaler p3({{2, 2, 2, 2}}), p4({{2, 2, 2, 2}});

    // Purity: a present-but-empty FaultSchedule is byte-identical to a
    // fleet that never heard of faults — simulation AND telemetry.
    fleet::FleetSim plain(spec, plan, fleetTestServing(), load, fc);
    auto fc_empty = fc;
    fc_empty.faults = fleet::FaultSchedule{};
    fleet::FleetSim empty(spec, plan, fleetTestServing(), load, fc_empty);
    const auto s_plain = plain.run(p1);
    const auto s_empty = empty.run(p2);
    EXPECT_EQ(s_plain.fingerprint(), s_empty.fingerprint());
    EXPECT_EQ(s_plain.telemetryFingerprint(),
              s_empty.telemetryFingerprint());
    EXPECT_TRUE(s_empty.telemetry.scenarios.empty());

    // Determinism: the same crash schedule reproduces byte-identical
    // ledgers, and grades exactly one scenario scorecard.
    auto fc_crash = fc;
    fc_crash.faults.crashReplica(0, 1, /*start=*/2, /*end=*/3, 0.5);
    fleet::FleetSim c1(spec, plan, fleetTestServing(), load, fc_crash);
    fleet::FleetSim c2(spec, plan, fleetTestServing(), load, fc_crash);
    const auto s_c1 = c1.run(p3);
    const auto s_c2 = c2.run(p4);
    EXPECT_EQ(s_c1.fingerprint(), s_c2.fingerprint());
    EXPECT_EQ(s_c1.telemetryFingerprint(), s_c2.telemetryFingerprint());
    ASSERT_EQ(s_c1.telemetry.scenarios.size(), 1u);
    const auto &sc = s_c1.telemetry.scenarios[0];
    EXPECT_EQ(sc.kind, fleet::FaultKind::ReplicaCrash);
    EXPECT_EQ(sc.start_epoch, 2);
    EXPECT_GE(sc.blast_radius, 0.0);
    EXPECT_LE(sc.min_attainment, 1.0);

    // And the faulted ledger differs from the clean one (the crash is
    // not a no-op).
    EXPECT_NE(s_c1.fingerprint(), s_plain.fingerprint());
}

// ---------------------------------------------------------------------------
// Kitchen sink: every segment kind, every fault kind, sampling, telemetry.
// ---------------------------------------------------------------------------

/** First epoch any kitchen-sink fault is active. */
constexpr int kSinkFirstFault = 3;

/**
 * A scale-up (lag + cold + steady segments) in epoch 1, a scale-down
 * (cold + steady) in epoch 5, a mixed reconfiguration in epoch 7, steady
 * epochs in between; with `faults`, one event of every FaultKind from
 * kSinkFirstFault on (a storm that also lands on a scale-up, and a
 * full-share storm that only invalidates). Trace sampling, telemetry and
 * measured row-cache models (so the cold window degrades) are on.
 */
fleet::FleetStats
kitchenSinkRun(bool faults)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    auto serving = fleetTestServing();
    core::ShardCacheOptions sco;
    sco.capacity_fraction = 0.4;
    serving.shard_cache_models =
        core::buildShardCacheModels(
            spec, plan,
            workload::RequestGenerator(spec, workload::GeneratorConfig{0x5c})
                .generate(60),
            0.8, 0x5c, sco)
            .models;

    auto dl = flatLoad(300.0);
    dl.amplitude = 0.3;
    dl.bursts_per_epoch = 0.5;
    dl.context_pool = 96;
    const workload::DiurnalLoadModel load(spec, dl);

    auto fc = smallFleet(10);
    fc.trace_sampling.enabled = true;
    if (faults) {
        fc.faults.crashReplica(0, 1, kSinkFirstFault, 5)
            .slowReplica(1, 0, 3.0, 4, 6)
            .partition(2, 5, 6)
            .snapshotStorm(5, 0.5)
            .snapshotStorm(8, 1.0)
            .flashCrowd(1.5, 0.25, 6, 8);
        fc.faults.crashReplica(3, 2, 7, 9); // onset inside a scale-up
    }
    fleet::FleetSim sim(spec, plan, serving, load, fc);
    ScriptedAutoscaler policy({{2, 2, 2, 2},
                               {3, 3, 2, 3},
                               {3, 3, 2, 3},
                               {3, 3, 2, 3},
                               {3, 3, 2, 3},
                               {2, 3, 2, 2},
                               {2, 3, 2, 2},
                               {3, 2, 3, 3}});
    return sim.run(policy);
}

/**
 * Digest of what both fingerprints leave out: the per-epoch trace
 * retention counts and exemplars, and the scorecards' exemplar links.
 */
std::uint64_t
traceDigest(const fleet::FleetStats &s)
{
    stats::Fnv fnv;
    fnv.add(static_cast<std::int64_t>(s.telemetry.traces.size()));
    for (const auto &t : s.telemetry.traces) {
        fnv.add(t.epoch);
        for (const std::uint64_t v :
             {t.roots_closed, t.retained, t.retained_bytes, t.kept_flagged,
              t.kept_tail, t.kept_reservoir, t.recycled, t.dropped_stale})
            fnv.add(static_cast<std::int64_t>(v));
        for (const auto &ex : t.exemplars) {
            fnv.add(static_cast<std::int64_t>(ex.request_id));
            fnv.add(static_cast<int>(ex.keep_class));
            fnv.add(static_cast<std::int64_t>(ex.e2e));
        }
    }
    for (const auto &o : s.telemetry.scenarios) {
        fnv.add(o.exemplar_epoch);
        for (const std::uint64_t id : o.exemplar_requests)
            fnv.add(static_cast<std::int64_t>(id));
    }
    return fnv.h;
}

/**
 * Pins the whole fleet path: ledger, telemetry, and trace retention of
 * the kitchen-sink run. A refactor of FleetSim must keep all three.
 */
TEST(FleetSim, KitchenSinkDigestsArePinned)
{
    const auto s = kitchenSinkRun(true);
    ASSERT_EQ(s.epochs.size(), 10u);
    // The run covers what it claims to.
    EXPECT_TRUE(s.epochs[1].scaled_up);
    EXPECT_TRUE(s.epochs[5].scaled_down && !s.epochs[5].scaled_up);
    EXPECT_TRUE(s.epochs[7].scaled_up && s.epochs[7].scaled_down);
    EXPECT_FALSE(s.epochs[3].reconfigured);
    ASSERT_EQ(s.telemetry.scenarios.size(), 7u);
    ASSERT_EQ(s.telemetry.traces.size(), 10u);

    EXPECT_EQ(s.fingerprint(), 0x82cf4c8ef9a918f8ULL);
    EXPECT_EQ(s.telemetryFingerprint(), 0x783473515f6bbb09ULL);
    EXPECT_EQ(traceDigest(s), 0x0af84d6b8038f8feULL);
}

/**
 * Epochs before the first fault's onset run exactly as a fault-free
 * fleet: ledger rows, telemetry rows and trace retention all match.
 */
TEST(FleetFaults, EpochsBeforeOnsetMatchAFaultFreeRun)
{
    const auto faulted = kitchenSinkRun(true);
    const auto clean = kitchenSinkRun(false);
    const auto prefix = [](const fleet::FleetStats &s) {
        fleet::FleetStats p;
        p.epochs.assign(s.epochs.begin(),
                        s.epochs.begin() + kSinkFirstFault);
        p.telemetry.epochs.assign(s.telemetry.epochs.begin(),
                                  s.telemetry.epochs.begin() +
                                      kSinkFirstFault);
        p.telemetry.traces.assign(s.telemetry.traces.begin(),
                                  s.telemetry.traces.begin() +
                                      kSinkFirstFault);
        return p;
    };
    EXPECT_EQ(prefix(faulted).fingerprint(), prefix(clean).fingerprint());
    EXPECT_EQ(prefix(faulted).telemetryFingerprint(),
              prefix(clean).telemetryFingerprint());
    EXPECT_EQ(traceDigest(prefix(faulted)), traceDigest(prefix(clean)));
    // The faults do bite afterwards.
    EXPECT_NE(faulted.fingerprint(), clean.fingerprint());
}

// ---------------------------------------------------------------------------
// Autoscaler factory.
// ---------------------------------------------------------------------------

TEST(AutoscalerFactory, BuiltinsConstructByName)
{
    const auto names = fleet::registeredAutoscalers();
    for (const char *expected :
         {"burn-rate", "predictive", "reactive", "static-peak"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected << " not built in";

    const auto study = fleet::makeFleetStudy(true);
    const workload::DiurnalLoadModel load(study.spec, study.load);
    const auto inputs = fleet::studyAutoscalerInputs(study, load);
    EXPECT_FALSE(inputs.initial_vector.empty());
    for (const std::string &name : names) {
        const auto policy = fleet::makeAutoscaler(name, inputs);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(AutoscalerFactory, UnknownNameThrowsWithKnownList)
{
    fleet::AutoscalerInputs inputs;
    try {
        fleet::makeAutoscaler("no-such-policy", inputs);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("no-such-policy"), std::string::npos);
        EXPECT_NE(what.find("reactive"), std::string::npos);
    }
}

TEST(AutoscalerFactory, BurnRateSharesReactiveActuation)
{
    fleet::AutoscalerInputs inputs;
    inputs.initial_vector = {4, 4, 4, 4};
    inputs.reactive.cooldown_epochs = 7;
    const auto policy = fleet::makeAutoscaler("burn-rate", inputs);
    const auto *burn =
        dynamic_cast<const fleet::BurnRateAutoscaler *>(policy.get());
    ASSERT_NE(burn, nullptr);
    EXPECT_EQ(burn->config().cooldown_epochs, 7);
}

// ---------------------------------------------------------------------------
// Misuse: every rule throws std::invalid_argument in every build type.
// ---------------------------------------------------------------------------

TEST(FleetMisuse, FleetSimRejectsAPlanWithoutSparseShards)
{
    const auto spec = model::makeDrm2();
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    EXPECT_THROW(fleet::FleetSim(spec, core::makeSingular(spec),
                                 fleetTestServing(), load, smallFleet(2)),
                 std::invalid_argument);
}

TEST(FleetMisuse, FleetSimRejectsNonPositiveEpochs)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    EXPECT_THROW(fleet::FleetSim(spec, plan, fleetTestServing(), load,
                                 smallFleet(0)),
                 std::invalid_argument);
}

TEST(FleetMisuse, FleetSimRejectsZeroRequestsPerEpoch)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    auto fc = smallFleet(2);
    fc.requests_per_epoch = 0;
    EXPECT_THROW(fleet::FleetSim(spec, plan, fleetTestServing(), load, fc),
                 std::invalid_argument);
}

TEST(FleetMisuse, FleetSimRejectsAFaultOutsideThePlan)
{
    const auto spec = model::makeDrm2();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    const workload::DiurnalLoadModel load(spec, flatLoad(300.0));
    auto fc = smallFleet(2);
    fc.faults.crashReplica(/*shard=*/4, 0, 0, 1);
    EXPECT_THROW(fleet::FleetSim(spec, plan, fleetTestServing(), load, fc),
                 std::invalid_argument);
}

TEST(FleetMisuse, FaultScheduleRejectsANegativeStartEpoch)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.partition(0, -1, 2), std::invalid_argument);
    EXPECT_TRUE(f.empty());
}

TEST(FleetMisuse, FaultScheduleRejectsAnEmptyWindow)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.crashReplica(0, 0, 3, 3), std::invalid_argument);
    EXPECT_TRUE(f.empty());
}

TEST(FleetMisuse, FaultScheduleRejectsANonPositiveSlowMultiplier)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.slowReplica(0, 0, 0.0, 0, 1), std::invalid_argument);
}

TEST(FleetMisuse, FaultScheduleRejectsAStormShareOutsideTheUnitInterval)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.snapshotStorm(0, 1.5), std::invalid_argument);
}

TEST(FleetMisuse, FaultScheduleRejectsAFlashRateBelowOne)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.flashCrowd(0.5, 0.1, 0, 1), std::invalid_argument);
}

TEST(FleetMisuse, FaultScheduleRejectsAHotFractionOutsideTheUnitInterval)
{
    fleet::FaultSchedule f;
    EXPECT_THROW(f.flashCrowd(2.0, 1.5, 0, 1), std::invalid_argument);
}

TEST(FleetMisuse, DiurnalLoadRejectsANonPositiveBaseQps)
{
    const auto spec = model::makeDrm2();
    EXPECT_THROW(workload::DiurnalLoadModel(spec, flatLoad(0.0)),
                 std::invalid_argument);
}

TEST(FleetMisuse, DiurnalLoadRejectsAnAmplitudeOutsideTheUnitInterval)
{
    const auto spec = model::makeDrm2();
    auto dl = flatLoad(300.0);
    dl.amplitude = 1.0;
    EXPECT_THROW(workload::DiurnalLoadModel(spec, dl), std::invalid_argument);
}

TEST(FleetMisuse, DiurnalLoadRejectsZeroEpochsPerDay)
{
    const auto spec = model::makeDrm2();
    auto dl = flatLoad(300.0);
    dl.epochs_per_day = 0;
    EXPECT_THROW(workload::DiurnalLoadModel(spec, dl), std::invalid_argument);
}

TEST(FleetMisuse, DiurnalLoadRejectsABurstFractionOutsideTheUnitInterval)
{
    const auto spec = model::makeDrm2();
    auto dl = flatLoad(300.0);
    dl.burst_fraction = 1.5;
    EXPECT_THROW(workload::DiurnalLoadModel(spec, dl), std::invalid_argument);
}

TEST(FleetMisuse, CapacityPlannerRejectsAPlanWithoutSparseShards)
{
    const auto spec = model::makeDrm2();
    EXPECT_THROW(fleet::CapacityPlanner(spec, core::makeSingular(spec),
                                        fleetTestServing(), {}),
                 std::invalid_argument);
}

TEST(FleetMisuse, CapacityPlannerRejectsHeadroomBelowOne)
{
    const auto spec = model::makeDrm2();
    fleet::PlannerConfig pc;
    pc.headroom = 0.9;
    EXPECT_THROW(fleet::CapacityPlanner(spec,
                                        core::makeCapacityBalanced(spec, 4),
                                        fleetTestServing(), pc),
                 std::invalid_argument);
}

TEST(FleetMisuse, CapacityPlannerQuantizeRejectsANonPositiveQps)
{
    const auto spec = model::makeDrm2();
    fleet::PlannerConfig pc;
    pc.planning_requests = 4;
    const fleet::CapacityPlanner planner(
        spec, core::makeCapacityBalanced(spec, 4), fleetTestServing(), pc);
    EXPECT_THROW(planner.quantize(0.0), std::invalid_argument);
}

TEST(FleetMisuse, StaticPeakFactoryRejectsANullPlanner)
{
    fleet::AutoscalerInputs inputs;
    EXPECT_THROW(fleet::makeAutoscaler("static-peak", inputs),
                 std::invalid_argument);
}

TEST(FleetMisuse, PredictiveFactoryRejectsANullPlanner)
{
    fleet::AutoscalerInputs inputs;
    EXPECT_THROW(fleet::makeAutoscaler("predictive", inputs),
                 std::invalid_argument);
}

} // namespace
