/**
 * @file
 * The fleet-level control-plane simulator: run the serving engine through
 * a sequence of diurnal load epochs and reconfigure it between them.
 *
 * Each epoch e:
 *   1. The Autoscaler decides the sparse-replica vector for e (seeing
 *      only the load model's forecast and the previous epoch's measured
 *      observation).
 *   2. The epoch's request sample replays open-loop at the *realized*
 *      rate (bursts included) through a per-epoch segment plan: one
 *      fresh ServingSimulation per entry, run by one loop. The plan
 *      splits the epoch when the vector changed:
 *        - scale-up provisioning lag: the first kProvisioningLagFraction
 *          (fleet_sim.cc) of the epoch still serves on the OLD vector
 *          (new machines are booting — and billed) while offered load
 *          is already the new epoch's;
 *        - cold-cache window: the next kColdCacheFraction serves on the
 *          new vector with scaled-up shards' row-cache hit rates degraded by
 *          the cold-replica warmup ramp (a shard that grew from r to r'
 *          replicas serves at (r + 0.5*(r'-r))/r' of its steady hit rate
 *          while the new caches fill), and with the pooled-result cache
 *          invalidated through ServingSimulation::invalidateResultCache()
 *          — reconfiguration reshards traffic, so pooled responses from
 *          the old layout are dropped and must be re-earned;
 *        - steady remainder: new vector, warm caches.
 *      Request streams carry over between epochs via a prewarm slice
 *      (replayed before counters engage) so the pooled-result cache has
 *      cross-epoch continuity exactly when no reconfiguration happened.
 *   3. The ledger charges machine-hours (decided vector for the whole
 *      epoch, plus the old plan's extra machines during a scale-up lag),
 *      watt-hours (per-segment measured utilization through the platform
 *      idle/busy power curve, idle draw for still-booting replicas), SLO
 *      violations (overall and outside the declared reconfiguration
 *      window), and shed volume.
 *
 * Everything is seeded: two runs with the same configuration produce
 * byte-identical FleetStats (fingerprint()-comparable), which is what
 * makes policy ledgers diffable across commits.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "core/sharding_plan.h"
#include "dc/replication.h"
#include "fleet/autoscaler.h"
#include "fleet/fault_schedule.h"
#include "model/model_spec.h"
#include "obs/detect.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo_monitor.h"
#include "obs/span_tracer.h"
#include "sched/capacity_search.h"
#include "workload/diurnal.h"

namespace dri::fleet {

/** Wall-clock length one epoch stands for (the machine-hour unit). */
inline constexpr double kEpochDurationS = 3600.0;
/** Retained-trace byte budget per epoch (trace sampling). */
inline constexpr std::size_t kTracePerEpochByteBudget = 256u << 10;
/** Max exemplar request ids per epoch summary / scorecard. */
inline constexpr std::size_t kTraceScenarioExemplars = 4;

/** Fleet-simulation parameters. */
struct FleetConfig
{
    sched::SloSpec slo;
    /** Epochs to simulate (across days of config().epochs_per_day). */
    int epochs = 24;
    /** Request-sample length replayed per epoch. */
    std::size_t requests_per_epoch = 280;
    std::uint64_t seed = 0xf1ee7;
    /**
     * Optional metrics registry (src/obs). When set, FleetSim registers
     * per-epoch gauges/counters (offered load, P99, shed/hedge/cache-hit
     * rates, utilization, replica vector, peak replica queue) and takes
     * one snapshot per epoch at the epoch's end time, turning autoscaler
     * behavior into a plottable time-series instead of a final
     * ledger. Pure observer — attaching it never changes the ledger
     * fingerprint. Not owned; must outlive run().
     */
    obs::MetricsRegistry *metrics = nullptr;
    /**
     * Injected-fault script (empty by default). Events apply per epoch
     * through the serving runtime control surface; an empty schedule is
     * byte-identical to a fault-free run (purity), and the same
     * schedule reproduces byte-identical ledgers (determinism). Each
     * event is graded into a ScenarioOutcome scorecard on the telemetry
     * side-ledger.
     */
    FaultSchedule faults;

    /**
     * Bounded per-epoch trace retention via obs::TraceSampler. When
     * enabled, every epoch runs with a fresh span tracer + sampler
     * (fleet_sim.cc's kTraceSamplingSeed mixed with the epoch index)
     * and a per-segment rolling latency feed driving the tail
     * threshold; the epoch's retained traces are summarized into
     * TelemetryLedger::traces and blast-epoch exemplar request ids are
     * attached to chaos scorecards.
     * Observation-pure by construction: the sampler draws only its
     * private RNG, so ledger AND telemetry fingerprints are identical
     * with sampling on or off (asserted by fleet tests).
     */
    struct TraceSamplingConfig
    {
        bool enabled = false;
    };
    TraceSamplingConfig trace_sampling;
};

/** One epoch's ledger row. */
struct EpochRecord
{
    int epoch = 0;
    double forecast_qps = 0.0;
    double offered_qps = 0.0;
    std::vector<int> replicas;
    bool reconfigured = false;
    bool scaled_up = false;
    bool scaled_down = false;

    /** Served-request P99 across the whole epoch. */
    double p99_ms = 0.0;
    /** Served-request P99 outside the declared reconfiguration window. */
    double steady_p99_ms = 0.0;
    double shed_rate = 0.0;
    std::int64_t shed_requests = 0;
    /** SLO check over the whole epoch (reconfiguration window included). */
    bool slo_violation = false;
    /** SLO check outside the declared reconfiguration window. */
    bool steady_slo_violation = false;

    double machine_hours = 0.0;
    double watt_hours = 0.0;
    double mean_sparse_utilization = 0.0;
    double max_sparse_utilization = 0.0;
    double result_cache_hit_rate = 0.0;
    /** Hedge backups per primary dispatch across the epoch's segments. */
    double hedge_rate = 0.0;
    /** Deepest replica queue (in-flight + queued) observed at dispatch. */
    std::int64_t peak_replica_queue = 0;

    /** dc-costed deployment at the decided vector (measured utilization). */
    dc::DeploymentPlan plan;
    std::int64_t planMemoryBytes() const { return plan.totalMemoryBytes(); }
    double planPowerWatts() const { return plan.totalPowerWatts(); }
};

/** One epoch's telemetry row (parallel to EpochRecord). */
struct EpochTelemetry
{
    int epoch = 0;
    /** Offered/forecast ratio — the burst detector's input signal. */
    double load_ratio = 0.0;
    /** The online anomaly detector flagged this epoch. */
    bool burst_flagged = false;
    double latency_fast_burn = 0.0;
    double latency_slow_burn = 0.0;
    double shed_fast_burn = 0.0;
    double shed_slow_burn = 0.0;
    double availability_fast_burn = 0.0;
    double availability_slow_burn = 0.0;
    /** Cumulative latency error budget consumed (> 1 = exhausted). */
    double latency_budget_consumed = 0.0;
    /** Objectives in the Firing state after this epoch's evaluation. */
    int alerts_firing = 0;
};

/** One epoch's trace-retention summary (sampling enabled only). */
struct EpochTraceSummary
{
    int epoch = 0;
    std::uint64_t roots_closed = 0;
    std::uint64_t retained = 0;
    std::uint64_t retained_bytes = 0;
    std::uint64_t kept_flagged = 0;
    std::uint64_t kept_tail = 0;
    std::uint64_t kept_reservoir = 0;
    std::uint64_t recycled = 0;
    std::uint64_t dropped_stale = 0; //!< feed samples over a horizon late

    /** One retained trace worth pointing an investigation at. */
    struct Exemplar
    {
        std::uint64_t request_id = 0;
        obs::KeepClass keep_class = obs::KeepClass::Recycled;
        sim::Duration e2e = 0;
    };
    /** Highest-priority retained traces (class desc, then e2e desc). */
    std::vector<Exemplar> exemplars;
};

/**
 * The telemetry side-ledger every fleet run produces: SLO burn-rate
 * alerting over the measured per-epoch event counts, plus an online
 * burst detector on the offered/forecast load ratio, scored against the
 * load model's seeded ground truth. Pure post-epoch arithmetic over
 * values the ledger already measured — it can NEVER feed back into the
 * simulation, and FleetStats::fingerprint() excludes it. Only an
 * autoscaling policy that consumes its own alert stream (e.g.
 * BurnRateAutoscaler) changes a run, and that is a different policy,
 * not a monitor side effect. The burn windows, thresholds and budgets
 * are fleet_sim.cc's telemetry constants (kFastWindowEpochs and
 * onward); the shed budget is the SLO's max_shed_rate.
 */
struct TelemetryLedger
{
    std::vector<EpochTelemetry> epochs;
    /** Alert lifecycle event log, in emission order. */
    std::vector<obs::AlertEvent> alerts;
    /** Online burst detector scored against the load model's truth. */
    obs::DetectionEval burst_eval;
    /**
     * Per-fault-event chaos scorecards (blast radius, recovery time on
     * the burn-rate clock), one per FaultSchedule event, in schedule
     * order. Empty for fault-free runs — and folded into fingerprint()
     * only when non-empty, so telemetry fingerprints of fault-free runs
     * are unchanged from before the fault layer existed.
     */
    std::vector<ScenarioOutcome> scenarios;
    /**
     * Per-epoch trace-retention summaries (one per epoch when
     * FleetConfig::trace_sampling is enabled, else empty). EXCLUDED
     * from fingerprint(): sampling must be fingerprint-invisible.
     */
    std::vector<EpochTraceSummary> traces;

    /**
     * Same contract as FleetStats::fingerprint(), over the telemetry
     * ledger: equal fingerprints mean byte-identical alert streams,
     * burn trajectories, and detection scorecards.
     */
    std::uint64_t fingerprint() const;
};

/** The fleet ledger one policy run produces. */
struct FleetStats
{
    std::string policy;
    std::vector<EpochRecord> epochs;
    /** Analysis side-ledger. */
    TelemetryLedger telemetry;

    double totalMachineHours() const;
    double totalWattHours() const;
    int sloViolationEpochs() const;
    int steadySloViolationEpochs() const;
    std::int64_t totalShedRequests() const;
    int reconfigurations() const;

    /**
     * Order-sensitive hash over every numeric field of every epoch (bit
     * patterns, not rounded values): equal fingerprints mean
     * byte-identical ledgers, the determinism contract reruns assert.
     * Deliberately EXCLUDES the telemetry side-ledger: the simulation
     * fingerprint covers what was simulated, not what monitors made of
     * it.
     */
    std::uint64_t fingerprint() const;

    /** fingerprint() over the telemetry side-ledger. */
    std::uint64_t telemetryFingerprint() const
    {
        return telemetry.fingerprint();
    }
};

/** Epoch driver: one policy through one diurnal trace. */
class FleetSim
{
  public:
    /**
     * Throws std::invalid_argument for a plan with no sparse shards,
     * epochs <= 0, requests_per_epoch == 0, or a crash, slow-replica or
     * partition event whose shard lies outside the plan.
     */
    FleetSim(const model::ModelSpec &spec, const core::ShardingPlan &plan,
             core::ServingConfig base_serving,
             const workload::DiurnalLoadModel &load, FleetConfig config);

    /** Run the policy through all epochs and return its ledger. */
    FleetStats run(Autoscaler &policy);

    const FleetConfig &config() const { return cfg_; }

  private:
    struct FaultPlan;
    struct Segment;
    struct EpochPlan;
    struct EpochTally;

    /**
     * Replay one entry of the epoch's segment plan in a fresh
     * ServingSimulation and add what it measured to `tally`.
     */
    void runSegment(const Segment &seg, const EpochPlan &epoch,
                    EpochTally &tally) const;

    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    core::ServingConfig base_;
    const workload::DiurnalLoadModel &load_;
    FleetConfig cfg_;
};

} // namespace dri::fleet
