/**
 * @file
 * Fleet autoscaling policies: who decides the per-epoch replica vector.
 *
 * An Autoscaler is consulted once per load epoch, *before* the epoch
 * runs, and returns the sparse-shard replica vector the fleet should
 * serve that epoch with. Three policies span the operational design
 * space:
 *
 *  - StaticPeak: provision once for the diurnal peak forecast and never
 *    reconfigure. The paper's single-operating-point sizing applied to a
 *    diurnal world: every off-peak machine-hour is waste, but the SLO is
 *    safe by construction.
 *  - Reactive: classic feedback scaling on *measured* signals — scale up
 *    when the last epoch's utilization or P99 crossed the high
 *    watermark, scale down when utilization sat under the low watermark
 *    with latency slack. Hysteresis (the watermark gap) prevents
 *    flapping; a cooldown bounds reconfiguration frequency; scale-ups
 *    are never cooldown-blocked (capacity emergencies outrank churn).
 *  - Predictive: provision epoch t from the load model's *forecast* for
 *    epoch t by invoking the capacity planner at the SLO boundary — the
 *    composition of sched::ProvisionLoop (load-proportional replica
 *    vector from measured per-shard demand) and sched::CapacitySearch
 *    (verify the vector actually sustains the target under the SLO,
 *    bumping replicas until it does).
 *
 * Every policy produces vectors the FleetSim applies through the same
 * reconfiguration machinery (provisioning lag, cold caches, result-cache
 * invalidation), so their FleetStats ledgers are directly comparable.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/serving.h"
#include "core/sharding_plan.h"
#include "model/model_spec.h"
#include "obs/slo_monitor.h"
#include "sched/capacity_search.h"
#include "workload/diurnal.h"

namespace dri::fleet {

/** What a policy may observe about the epoch that just finished. */
struct EpochObservation
{
    int epoch = 0;
    /** Replica vector the epoch actually served with. */
    std::vector<int> replicas;
    double offered_qps = 0.0;
    double p99_ms = 0.0;
    double shed_rate = 0.0;
    /** Mean worker-pool utilization per sparse shard. */
    std::vector<double> shard_utilization;
    double max_shard_utilization = 0.0;

    // ---- Event counts behind the rates (what error-budget accounting
    //      needs: a burn rate is bad events over total events, not a
    //      quantile). Zero for policies that predate them.
    /** Requests offered this epoch (served + shed). */
    std::int64_t requests = 0;
    std::int64_t shed_requests = 0;
    /** SERVED requests whose e2e latency exceeded the SLO P99 target. */
    std::int64_t over_latency_target = 0;
};

/** Per-epoch replica-vector policy. */
class Autoscaler
{
  public:
    virtual ~Autoscaler() = default;

    virtual std::string name() const = 0;

    /**
     * The replica vector for `epoch`, decided before it runs. `last` is
     * the previous epoch's observation (null before the first epoch).
     * The load model's forecast is visible; its realized (burst) rate is
     * not — that is the information asymmetry the policies differ on.
     */
    virtual std::vector<int> decide(int epoch,
                                    const workload::DiurnalLoadModel &load,
                                    const EpochObservation *last) = 0;
};

/** Shared planner parameters (StaticPeak + Predictive). */
struct PlannerConfig
{
    sched::SloSpec slo;
    /** Provision for forecast * headroom (burst + error margin). */
    double headroom = 1.25;
    /** Per-replica utilization ceiling ProvisionLoop sizes to. */
    double target_utilization = 0.6;
    int min_replicas = 1;
    int max_replicas = 8;
    /** Request-sample length for planning simulations. */
    std::size_t planning_requests = 256;
};

/**
 * The ProvisionLoop + CapacitySearch composition both planned policies
 * share: replicaVectorFor(qps) returns the cheapest per-shard replica
 * vector the planner believes sustains `qps` under the SLO, caching by
 * quantized rate (autoscaler.cc's kQpsQuantum grid), sizing each plan
 * with at most kProvisionIterations ProvisionLoop rounds and verifying it
 * with at most kMaxVerifyBumps replica bumps. Each plan simulates every
 * vector it checks once: when monotone regularization leaves the loop's
 * final vector unchanged, the first SLO check reads the loop's last
 * iteration (the same run a capacity-search probe would make), and every
 * other check is a fresh probe.
 */
class CapacityPlanner
{
  public:
    /**
     * Throws std::invalid_argument for a plan with no sparse shards or
     * headroom < 1.
     *
     * `planning_stream` is the request sample every plan simulates; an
     * empty stream synthesizes an all-distinct one from autoscaler.cc's
     * kPlanningSeed. Pass the load model's own traffic (e.g.
     * epochRequests(0, n)) so plans price what the fleet actually
     * serves — a planner fed repeat-free traffic over-provisions a
     * result-cache-heavy fleet.
     */
    CapacityPlanner(const model::ModelSpec &spec,
                    const core::ShardingPlan &plan,
                    core::ServingConfig serving, PlannerConfig config,
                    std::vector<workload::Request> planning_stream = {});

    /** Plan (or fetch the cached plan) for one target rate. */
    std::vector<int> replicaVectorFor(double qps);

    /**
     * Rate quantization: the grid point at or above `qps`. Throws
     * std::invalid_argument for qps <= 0.
     */
    double quantize(double qps) const;

    const PlannerConfig &config() const { return config_; }

    /** Plans computed so far: replicaVectorFor's cache misses. */
    int plansComputed() const { return plans_computed_; }

  private:
    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    core::ServingConfig serving_;
    PlannerConfig config_;
    std::vector<workload::Request> planning_requests_;
    /** Keyed by quantized rate (stable: quantize() is deterministic). */
    std::map<double, std::vector<int>> cache_;
    int plans_computed_ = 0;
};

/** Provision once for the diurnal peak; never reconfigure. */
class StaticPeakAutoscaler : public Autoscaler
{
  public:
    StaticPeakAutoscaler(std::shared_ptr<CapacityPlanner> planner);

    std::string name() const override { return "static-peak"; }
    std::vector<int> decide(int epoch,
                            const workload::DiurnalLoadModel &load,
                            const EpochObservation *last) override;

  private:
    std::shared_ptr<CapacityPlanner> planner_;
    std::vector<int> vector_;
};

/**
 * Reactive watermark parameters. The utilization band, P99 guard and
 * step sizes are autoscaler.cc constants shared by both feedback
 * policies.
 */
struct ReactiveConfig
{
    sched::SloSpec slo;
    /**
     * Epochs that must pass after any reconfiguration before another
     * *scale-down* is allowed. Scale-ups are exempt: refusing capacity
     * during an overload to respect churn budgets inverts priorities.
     */
    int cooldown_epochs = 2;
    int min_replicas = 1;
    int max_replicas = 8;
};

/** Measured-signal feedback scaler with hysteresis + cooldown. */
class ReactiveAutoscaler : public Autoscaler
{
  public:
    /** `initial` seeds epoch 0 (typically the StaticPeak vector). */
    ReactiveAutoscaler(std::vector<int> initial, ReactiveConfig config);

    std::string name() const override { return "reactive"; }
    std::vector<int> decide(int epoch,
                            const workload::DiurnalLoadModel &load,
                            const EpochObservation *last) override;

    const ReactiveConfig &config() const { return config_; }

  private:
    std::vector<int> vector_;
    ReactiveConfig config_;
    /** Epoch of the last reconfiguration this policy issued. */
    int last_change_epoch_ = -1000000;
};

/**
 * Scale up when a multi-window burn-rate alert FIRES (the SLO's error
 * budget is provably burning), creep hot shards on the utilization
 * watermark, and scale down only under sustained budget health. Same
 * actuation machinery as ReactiveAutoscaler, from the same
 * ReactiveConfig (steps, watermarks, cooldown, SLO) — the difference
 * under test is purely the trigger: raw-threshold feedback vs
 * error-budget burn rates with hysteresis. The burn windows,
 * thresholds and health rule are autoscaler.cc's kBurn* constants; the
 * shed budget is the SLO's max_shed_rate.
 */
class BurnRateAutoscaler : public Autoscaler
{
  public:
    /** `initial` seeds epoch 0 (typically the StaticPeak vector). */
    BurnRateAutoscaler(std::vector<int> initial, ReactiveConfig config);

    std::string name() const override { return "burn-rate"; }
    std::vector<int> decide(int epoch,
                            const workload::DiurnalLoadModel &load,
                            const EpochObservation *last) override;

    const ReactiveConfig &config() const { return config_; }
    /** The policy's own monitor (alert log inspection in tests). */
    const obs::SloMonitor &monitor() const { return monitor_; }

  private:
    std::vector<int> vector_;
    ReactiveConfig config_;
    obs::SloMonitor monitor_;
    int latency_objective_ = -1;
    int shed_objective_ = -1;
    int last_change_epoch_ = -1000000;
    int healthy_streak_ = 0;
};

/** Forecast-driven planner invocation per epoch. */
class PredictiveAutoscaler : public Autoscaler
{
  public:
    PredictiveAutoscaler(std::shared_ptr<CapacityPlanner> planner);

    std::string name() const override { return "predictive"; }
    std::vector<int> decide(int epoch,
                            const workload::DiurnalLoadModel &load,
                            const EpochObservation *last) override;

  private:
    std::shared_ptr<CapacityPlanner> planner_;
};

// ---------------------------------------------------------------------------
// Policy factory.
// ---------------------------------------------------------------------------

/**
 * Everything a built-in policy may draw on. One inputs bundle constructs
 * ANY policy, so study drivers build it once and select policies by name
 * (a CLI flag, a config string, a sweep list) instead of hand-wiring each
 * concrete constructor.
 */
struct AutoscalerInputs
{
    /** Shared capacity planner ("static-peak", "predictive"). */
    std::shared_ptr<CapacityPlanner> planner;
    /** Epoch-0 seed vector for feedback policies (typically the peak
     *  plan), so every policy starts from the same provisioning. */
    std::vector<int> initial_vector;
    /** Watermark actuation of both feedback policies ("reactive",
     *  "burn-rate"): the studies compare triggers, not actuations. */
    ReactiveConfig reactive;
};

/**
 * Construct a built-in policy by name: "static-peak", "reactive",
 * "predictive" or "burn-rate". Throws std::invalid_argument naming the
 * known policies when `name` is none of them, and when a planned policy
 * ("static-peak", "predictive") gets a null planner.
 */
std::unique_ptr<Autoscaler> makeAutoscaler(const std::string &name,
                                           const AutoscalerInputs &inputs);

/** The built-in policy names, sorted. */
std::vector<std::string> registeredAutoscalers();

} // namespace dri::fleet
