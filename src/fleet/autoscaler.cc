#include "fleet/autoscaler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sched/provision_loop.h"

namespace dri::fleet {

namespace {

/**
 * Quantize target rates onto a geometric grid before planning, so a
 * repeating diurnal profile reuses cached plans instead of re-simulating
 * every epoch (and small forecast wiggles do not thrash the fleet).
 */
constexpr double kQpsQuantum = 1.10;
static_assert(kQpsQuantum > 1.0);
/** ProvisionLoop fixed-point iteration cap per plan. */
constexpr int kProvisionIterations = 4;
/** Generator seed of the synthesized planning stream (none passed in). */
constexpr std::uint64_t kPlanningSeed = 0x91a2;
/**
 * Each plan is verified at the target rate, bumping every shard by one
 * replica (up to max_replicas) until the vector meets the SLO — the
 * "capacity search at the SLO boundary" step that turns
 * utilization-sized vectors into SLO-safe ones. Bump 0 reads the
 * ProvisionLoop's last iteration when monotone regularization left its
 * vector unchanged (that iteration is the probe, already run); every
 * other check is a CapacitySearch probe. This caps the bumps per plan.
 */
constexpr int kMaxVerifyBumps = 3;

// Watermark actuation, shared by Reactive and Burn-rate.
/**
 * Scale up when any shard's mean utilization crosses this. The band
 * sits LOWER than a forecast planner's target utilization on purpose: a
 * feedback controller reacts a full epoch late, so it must hold enough
 * slack to absorb a rise within its reaction time — which is exactly
 * the efficiency a trustworthy forecast buys back.
 */
constexpr double kHighUtilization = 0.5;
/** Scale down only when every shard sits under this. */
constexpr double kLowUtilization = 0.3;
static_assert(kLowUtilization < kHighUtilization,
              "hysteresis band must be non-empty");
/** Scale up when observed P99 exceeds this fraction of the SLO. */
constexpr double kP99GuardFraction = 0.85;
/** Per-shard replica step per decision (utilization drift). */
constexpr int kStep = 1;
/**
 * Per-shard step when LATENCY is breaching (P99 past the guard or
 * shedding): jump, don't creep — a controller that recovers an SLO
 * breach one replica at a time spends epochs in violation. The
 * overshoot is what a reactive fleet pays for not having a forecast;
 * the cooldown then walks the surplus back down slowly.
 */
constexpr int kPressureStep = 2;

// Burn-rate trigger.
/** Allowed fraction of served requests over the SLO P99 target. */
constexpr double kBurnLatencyBudgetFraction = 0.01;
/** Burn windows in EPOCHS (the policy's clock is the epoch index). */
constexpr int kBurnFastWindowEpochs = 1;
constexpr int kBurnSlowWindowEpochs = 4;
/**
 * Fire when the fast burn reaches this multiple AND the slow burn
 * reaches kBurnSlowBurnThreshold. Fast at 2x/slow at 1x means "the last
 * epoch burned twice its share and the longer horizon is already over
 * budget" — one bad epoch with a healthy history only arms the alert,
 * a sustained breach fires it.
 */
constexpr double kBurnFastBurnThreshold = 2.0;
constexpr double kBurnSlowBurnThreshold = 1.0;
constexpr int kBurnPendingTicks = 1;
constexpr int kBurnResolveTicks = 1;
/**
 * Budget health required before a scale-down: no alert firing and both
 * slow burns under this fraction of their threshold, for kHealthyEpochs
 * consecutive epochs (on top of the cooldown).
 */
constexpr double kHealthBurnFraction = 0.5;
constexpr int kHealthyEpochs = 2;

/**
 * Scale-up actuation of both feedback policies: under fleet-wide
 * pressure every shard grows by kPressureStep, otherwise the shards over
 * kHighUtilization creep by kStep. True when the vector changed.
 */
bool
scaleUp(std::vector<int> &vec, const EpochObservation &last,
        bool fleet_wide, const ReactiveConfig &cfg)
{
    const int step = fleet_wide ? kPressureStep : kStep;
    bool changed = false;
    for (std::size_t s = 0; s < vec.size(); ++s) {
        const bool hot = fleet_wide ||
                         (s < last.shard_utilization.size() &&
                          last.shard_utilization[s] > kHighUtilization);
        if (hot && vec[s] < cfg.max_replicas) {
            vec[s] = std::min(cfg.max_replicas, vec[s] + step);
            changed = true;
        }
    }
    return changed;
}

/**
 * Scale-down actuation of both feedback policies: every shard under
 * kLowUtilization shrinks by kStep. True when the vector changed.
 */
bool
scaleDown(std::vector<int> &vec, const EpochObservation &last,
          const ReactiveConfig &cfg)
{
    bool changed = false;
    for (std::size_t s = 0; s < vec.size(); ++s) {
        const bool idle = s >= last.shard_utilization.size() ||
                          last.shard_utilization[s] < kLowUtilization;
        if (idle && vec[s] > cfg.min_replicas) {
            vec[s] = std::max(cfg.min_replicas, vec[s] - kStep);
            changed = true;
        }
    }
    return changed;
}

} // namespace

// ---------------------------------------------------------------------------
// CapacityPlanner: ProvisionLoop sized at the rate, CapacitySearch probe
// verifying the SLO boundary.
// ---------------------------------------------------------------------------

CapacityPlanner::CapacityPlanner(const model::ModelSpec &spec,
                                 const core::ShardingPlan &plan,
                                 core::ServingConfig serving,
                                 PlannerConfig config,
                                 std::vector<workload::Request>
                                     planning_stream)
    : spec_(spec), plan_(plan), serving_(std::move(serving)),
      config_(config), planning_requests_(std::move(planning_stream))
{
    if (plan_.numShards() <= 0)
        throw std::invalid_argument(
            "CapacityPlanner: the plan has no sparse shards");
    if (!(config_.headroom >= 1.0))
        throw std::invalid_argument("CapacityPlanner: headroom must be >= 1");
    // One deterministic planning stream shared by every plan: paired
    // probes across rates, and across policies holding the same planner.
    if (planning_requests_.empty()) {
        workload::GeneratorConfig gc;
        gc.seed = kPlanningSeed;
        workload::RequestGenerator gen(spec_, gc);
        planning_requests_ = gen.generate(config_.planning_requests);
    } else if (planning_requests_.size() > config_.planning_requests) {
        planning_requests_.resize(config_.planning_requests);
    }
}

double
CapacityPlanner::quantize(double qps) const
{
    if (!(qps > 0.0))
        throw std::invalid_argument("CapacityPlanner: qps must be > 0");
    // Smallest integer power of the quantum at or above qps: small
    // forecast wiggles map to the same grid point (plan reuse), and
    // rounding *up* never under-provisions relative to the raw target.
    const double step = std::log(kQpsQuantum);
    const double k = std::ceil(std::log(qps) / step - 1e-9);
    return std::exp(k * step);
}

std::vector<int>
CapacityPlanner::replicaVectorFor(double qps)
{
    const double target = quantize(qps * config_.headroom);
    const auto it = cache_.find(target);
    if (it != cache_.end())
        return it->second;
    ++plans_computed_;

    // Load-proportional sizing: measured per-shard demand at the target
    // rate through dc::provision to a replica-vector fixed point.
    sched::ProvisionLoopConfig pc;
    pc.qps = target;
    pc.target_utilization = config_.target_utilization;
    pc.max_iterations = kProvisionIterations;
    pc.min_replicas = config_.min_replicas;
    pc.max_replicas = config_.max_replicas;
    sched::ProvisionLoop loop(spec_, plan_, serving_, pc);
    const sched::ProvisionLoopResult sized = loop.run(planning_requests_);
    std::vector<int> vec = sized.replicas;

    // Monotone regularization BEFORE verification: capacity is monotone
    // in replicas, so a cheaper-rate plan must never exceed a
    // pricier-rate plan. Measured demand wobbles +-1 replica between
    // nearby rates; without this the fleet reconfigures on noise (and
    // occasionally scales UP into a falling forecast). Running the
    // clamp first means the verify loop below only ever ADDS replicas —
    // a post-verification clamp could undo exactly the bump that made
    // the probe feasible. The cache is regularized inductively:
    // dominate every cached lower-rate plan, stay under every cached
    // higher-rate plan (cache_ iterates in ascending rate order).
    for (const auto &[rate, v] : cache_) {
        for (std::size_t s = 0; s < vec.size() && s < v.size(); ++s) {
            if (rate < target)
                vec[s] = std::max(vec[s], v[s]);
            else
                vec[s] = std::min(vec[s], v[s]);
        }
    }

    // SLO-boundary verification: utilization-sized vectors can still
    // miss a tail SLO (queueing at the sized utilization, straggler
    // interference). Probe the vector at the target rate and buy
    // replicas until the probe is feasible. The loop's last iteration
    // is the same run as a probe of its vector (kMaxVerifyBumps).
    const sched::ProvisionIteration &last = sized.trace.back();
    sched::CapacitySearchConfig sc;
    sc.slo = config_.slo;
    const auto probeFeasible = [&] {
        core::ServingConfig cfg = serving_;
        cfg.sparse_replicas_per_shard = vec;
        sched::CapacitySearch search(spec_, plan_, cfg, sc);
        return search.probe(target, planning_requests_).feasible;
    };
    for (int bump = 0; bump <= kMaxVerifyBumps; ++bump) {
        const bool feasible =
            bump == 0 && vec == last.replicas
                ? config_.slo.met(last.p99_ms, last.shed_rate)
                : probeFeasible();
        if (feasible)
            break;
        bool grew = false;
        for (auto &r : vec)
            if (r < config_.max_replicas) {
                ++r;
                grew = true;
            }
        if (!grew)
            break; // fleet-wide replica cap: nothing left to buy
    }

    cache_.emplace(target, vec);
    return vec;
}

// ---------------------------------------------------------------------------
// StaticPeak.
// ---------------------------------------------------------------------------

StaticPeakAutoscaler::StaticPeakAutoscaler(
    std::shared_ptr<CapacityPlanner> planner)
    : planner_(std::move(planner))
{
}

std::vector<int>
StaticPeakAutoscaler::decide(int, const workload::DiurnalLoadModel &load,
                             const EpochObservation *)
{
    if (vector_.empty())
        vector_ = planner_->replicaVectorFor(load.peakForecastQps());
    return vector_;
}

// ---------------------------------------------------------------------------
// Reactive.
// ---------------------------------------------------------------------------

ReactiveAutoscaler::ReactiveAutoscaler(std::vector<int> initial,
                                       ReactiveConfig config)
    : vector_(std::move(initial)), config_(config)
{
    assert(!vector_.empty());
    for (auto &r : vector_)
        r = std::clamp(r, config_.min_replicas, config_.max_replicas);
}

std::vector<int>
ReactiveAutoscaler::decide(int epoch, const workload::DiurnalLoadModel &,
                           const EpochObservation *last)
{
    if (last == nullptr)
        return vector_; // nothing measured yet: serve the seed vector

    const double p99_guard = kP99GuardFraction * config_.slo.p99_ms;
    const bool latency_pressure = last->p99_ms > p99_guard ||
                                  last->shed_rate >
                                      config_.slo.max_shed_rate;
    const bool util_pressure =
        last->max_shard_utilization > kHighUtilization;

    if (latency_pressure || util_pressure) {
        // Scale up: latency pressure is a fleet-wide signal (every shard
        // grows, by the overshoot step — queueing anywhere inflates the
        // request-level tail); pure utilization pressure creeps only the
        // hot shards.
        if (scaleUp(vector_, *last, latency_pressure, config_))
            last_change_epoch_ = epoch;
        return vector_;
    }

    // Scale down only inside the hysteresis band's lower half, with
    // latency slack, and only after the cooldown since the last change.
    if (epoch - last_change_epoch_ <= config_.cooldown_epochs)
        return vector_;
    const bool cold = last->max_shard_utilization < kLowUtilization &&
                      last->p99_ms < p99_guard;
    if (cold && scaleDown(vector_, *last, config_))
        last_change_epoch_ = epoch;
    return vector_;
}

// ---------------------------------------------------------------------------
// Burn-rate.
// ---------------------------------------------------------------------------

BurnRateAutoscaler::BurnRateAutoscaler(std::vector<int> initial,
                                       ReactiveConfig config)
    : vector_(std::move(initial)), config_(config)
{
    assert(!vector_.empty());
    for (auto &r : vector_)
        r = std::clamp(r, config_.min_replicas, config_.max_replicas);

    // Objectives run on the epoch index as their clock: horizon N
    // "seconds" with N buckets is one bucket per epoch.
    const auto objective = [&](const char *name, double budget) {
        obs::SloObjective o;
        o.name = name;
        o.budget_fraction = budget;
        o.fast_horizon_s = kBurnFastWindowEpochs;
        o.slow_horizon_s = kBurnSlowWindowEpochs;
        o.buckets = kBurnSlowWindowEpochs;
        o.fast_burn_threshold = kBurnFastBurnThreshold;
        o.slow_burn_threshold = kBurnSlowBurnThreshold;
        o.pending_ticks = kBurnPendingTicks;
        o.resolve_ticks = kBurnResolveTicks;
        return monitor_.addObjective(o);
    };
    latency_objective_ = objective("latency", kBurnLatencyBudgetFraction);
    shed_objective_ = objective("shed", config_.slo.max_shed_rate);
}

std::vector<int>
BurnRateAutoscaler::decide(int epoch, const workload::DiurnalLoadModel &,
                           const EpochObservation *last)
{
    if (last == nullptr)
        return vector_; // nothing measured yet: serve the seed vector

    // Fold the finished epoch into the error budgets. Mid-epoch stamp:
    // bucket boundaries sit at integers, so epoch e is period e.
    const double t = static_cast<double>(last->epoch) + 0.5;
    const std::int64_t served =
        std::max<std::int64_t>(0, last->requests - last->shed_requests);
    const std::int64_t over = std::clamp<std::int64_t>(
        last->over_latency_target, 0, served);
    monitor_.record(latency_objective_, t,
                    static_cast<std::uint64_t>(served - over),
                    static_cast<std::uint64_t>(over));
    monitor_.record(shed_objective_, t,
                    static_cast<std::uint64_t>(served),
                    static_cast<std::uint64_t>(last->shed_requests));
    monitor_.evaluate(t);

    const bool alert_firing = monitor_.anyFiring();
    const bool util_pressure =
        last->max_shard_utilization > kHighUtilization;

    if (alert_firing || util_pressure) {
        healthy_streak_ = 0;
        // A firing burn-rate alert is the fleet-wide signal (the budget
        // is provably burning everywhere the tail reaches); bare
        // utilization pressure creeps only the hot shards, as Reactive.
        if (scaleUp(vector_, *last, alert_firing, config_))
            last_change_epoch_ = epoch;
        return vector_;
    }

    // Budget health: nothing firing and both slow burns comfortably
    // inside budget. Only a sustained healthy streak may scale down.
    const bool healthy =
        monitor_.status(latency_objective_).slow_burn <
            kHealthBurnFraction * kBurnSlowBurnThreshold &&
        monitor_.status(shed_objective_).slow_burn <
            kHealthBurnFraction * kBurnSlowBurnThreshold;
    healthy_streak_ = healthy ? healthy_streak_ + 1 : 0;

    if (healthy_streak_ < kHealthyEpochs ||
        epoch - last_change_epoch_ <= config_.cooldown_epochs)
        return vector_;
    if (last->max_shard_utilization < kLowUtilization &&
        scaleDown(vector_, *last, config_))
        last_change_epoch_ = epoch;
    return vector_;
}

// ---------------------------------------------------------------------------
// Predictive.
// ---------------------------------------------------------------------------

PredictiveAutoscaler::PredictiveAutoscaler(
    std::shared_ptr<CapacityPlanner> planner)
    : planner_(std::move(planner))
{
}

std::vector<int>
PredictiveAutoscaler::decide(int epoch,
                             const workload::DiurnalLoadModel &load,
                             const EpochObservation *)
{
    return planner_->replicaVectorFor(load.forecastQps(epoch));
}

// ---------------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------------

std::unique_ptr<Autoscaler>
makeAutoscaler(const std::string &name, const AutoscalerInputs &inputs)
{
    const bool planned = name == "static-peak" || name == "predictive";
    if (planned && !inputs.planner)
        throw std::invalid_argument(name + " needs a capacity planner");
    if (name == "static-peak")
        return std::make_unique<StaticPeakAutoscaler>(inputs.planner);
    if (name == "predictive")
        return std::make_unique<PredictiveAutoscaler>(inputs.planner);
    // Both feedback policies take the shared reactive block: the studies
    // compare triggers, not actuation tunings.
    if (name == "reactive")
        return std::make_unique<ReactiveAutoscaler>(inputs.initial_vector,
                                                    inputs.reactive);
    if (name == "burn-rate")
        return std::make_unique<BurnRateAutoscaler>(inputs.initial_vector,
                                                    inputs.reactive);
    std::string known;
    for (const std::string &n : registeredAutoscalers())
        known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown autoscaler \"" + name +
                                "\" (registered: " + known + ")");
}

std::vector<std::string>
registeredAutoscalers()
{
    return {"burn-rate", "predictive", "reactive", "static-peak"};
}

} // namespace dri::fleet
