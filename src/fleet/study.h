/**
 * @file
 * The canonical fleet-autoscaling study: one deployment + diurnal trace
 * + policy parameterization shared by bench_fleet_autoscaling,
 * examples/fleet_study, and the fleet tests, so their self-checks all
 * measure the same fleet (the sparseBoundStudyConfig convention).
 *
 * The deployment is the sched study's sparse-bound DRM2 on a
 * capacity-balanced 4-shard plan — equal bytes per shard, deliberately
 * unequal compute, which is what makes per-shard replica vectors beat
 * uniform scaling. The pooled-result cache is on and per-shard row-cache
 * models are measured from a recorded trace slice, so reconfiguration
 * penalties (cold caches, result-cache invalidation) have teeth. Idle
 * power is set to 50% of peak — the non-power-proportionality that makes
 * parked machines the dominant TCO waste the autoscaler exists to
 * reclaim.
 */
#pragma once

#include "core/serving.h"
#include "core/sharding_plan.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet_sim.h"
#include "model/model_spec.h"
#include "workload/diurnal.h"

namespace dri::fleet {

/** Everything a fleet experiment needs, built once. */
struct FleetStudy
{
    model::ModelSpec spec;
    core::ShardingPlan plan;
    core::ServingConfig serving;
    workload::DiurnalLoadConfig load;
    FleetConfig fleet;
    PlannerConfig planner;
    ReactiveConfig reactive;
};

/**
 * Build the canonical study. `smoke` halves the trace (one day instead
 * of two) and shortens the per-epoch request sample for CI budgets.
 */
FleetStudy makeFleetStudy(bool smoke = false);

/**
 * Wire the study into an AutoscalerInputs bundle for makeAutoscaler():
 * one shared CapacityPlanner fed the load model's own traffic, the
 * peak-forecast plan as every feedback policy's epoch-0 seed, and the
 * study's reactive parameterization (the actuation of both the
 * "reactive" and "burn-rate" policies). Callers may tweak the returned
 * bundle before constructing policies.
 */
AutoscalerInputs
studyAutoscalerInputs(const FleetStudy &study,
                      const workload::DiurnalLoadModel &load);

} // namespace dri::fleet
