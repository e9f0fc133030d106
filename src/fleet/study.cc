#include "fleet/study.h"

#include "core/strategies.h"
#include "core/trace_slicing.h"
#include "model/generators.h"
#include "sched/capacity_search.h"
#include "workload/request_generator.h"

namespace dri::fleet {

FleetStudy
makeFleetStudy(bool smoke)
{
    FleetStudy study;
    study.spec = model::makeDrm2();
    // Capacity-balanced: equal bytes per shard, deliberately unequal
    // compute — the plan where load-proportional replica vectors matter.
    study.plan = core::makeCapacityBalanced(study.spec, 4);

    study.serving = sched::sparseBoundStudyConfig(
        rpc::LoadBalancePolicy::LeastOutstanding, 2);
    study.serving.result_cache.enabled = true;
    // Non-power-proportional servers: ~50% of peak draw at idle, the
    // figure that makes parked peak capacity the dominant watt-hour
    // waste (scLarge's optimistic 30% understates production fleets).
    study.serving.sparse_platform.idle_watts = 200.0;
    study.serving.main_platform.idle_watts = 200.0;

    // Measured per-shard row-cache models, streamed from the requests'
    // shard-routed accesses (~22M at full size, so no trace is stored):
    // gives the cold-cache reconfiguration penalty real hit rates to
    // degrade. Gentler miss cost than the paging studies (a second-tier
    // DRAM gather, not an NVMe page-in) keeps the deployment sparse-RPC
    // bound rather than cache-miss bound.
    {
        workload::RequestGenerator tgen(
            study.spec, workload::GeneratorConfig{0x7ace});
        core::ShardCacheOptions sco;
        sco.capacity_fraction = 0.4;
        sco.costs.miss_ns = 300.0;
        study.serving.shard_cache_models =
            core::buildShardCacheModels(study.spec, study.plan,
                                        tgen.generate(smoke ? 240 : 400),
                                        0.8, 0x7ace, sco)
                .models;
    }

    study.load.base_qps = 450.0;
    study.load.amplitude = 0.7;
    study.load.epochs_per_day = 12;
    study.load.bursts_per_epoch = 0.25;
    study.load.burst_multiplier = 1.6;
    study.load.burst_fraction = 0.25;
    // Recurring ranking contexts on a day-scale horizon: a large pool
    // keeps within-epoch repeats (and therefore capacity economics)
    // modest while still giving the pooled-result cache cross-epoch
    // continuity to lose at a reconfiguration — only recurring vectors
    // hit under content-addressed keys.
    study.load.context_pool = 768;

    study.fleet.slo.p99_ms = 60.0;
    study.fleet.slo.max_shed_rate = 0.01;
    study.fleet.epochs = smoke ? 12 : 24;
    study.fleet.requests_per_epoch = smoke ? 180 : 280;

    study.planner.slo = study.fleet.slo;
    // The smoke study plans from smaller samples; its forecast error is
    // larger, so it buys more headroom.
    study.planner.headroom = smoke ? 1.3 : 1.15;
    study.planner.target_utilization = 0.68;
    study.planner.planning_requests = smoke ? 160 : 256;
    // Redundancy floor: no shard ever runs a single replica (a lone
    // replica's hiccup IS the request tail at trough rates).
    study.planner.min_replicas = 2;

    study.reactive.slo = study.fleet.slo;
    study.reactive.cooldown_epochs = 3;
    study.reactive.min_replicas = 2;
    return study;
}

AutoscalerInputs
studyAutoscalerInputs(const FleetStudy &study,
                      const workload::DiurnalLoadModel &load)
{
    AutoscalerInputs in;
    in.planner = std::make_shared<CapacityPlanner>(
        study.spec, study.plan, study.serving, study.planner,
        load.epochRequests(0, study.planner.planning_requests));
    in.initial_vector = in.planner->replicaVectorFor(load.peakForecastQps());
    in.reactive = study.reactive;
    return in;
}

} // namespace dri::fleet
