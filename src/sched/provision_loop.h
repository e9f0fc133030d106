/**
 * @file
 * Utilization-driven provisioning feedback loop.
 *
 * dc::provision sizes replica counts from *assumed* per-shard CPU demand;
 * the serving simulation *measures* that demand (per-replica worker-pool
 * busy time). ProvisionLoop closes the loop the paper's capacity argument
 * implies (Section VII-C: shards are replicated independently based on
 * load): simulate a deployment at the target rate, derive each sparse
 * shard's measured dc::ShardDemand from its replicas' busy core-time,
 * re-provision per-shard replica counts, and repeat until the replica
 * vector reaches a fixed point. The result is a heterogeneous,
 * load-proportional replica vector — hot shards (skewed table placement,
 * heavy pooling) get more replicas, cold shards fewer — instead of the
 * homogeneous replication the fixed `sparse_replicas` knob gives every
 * shard.
 *
 * Convergence: replica counts feed back into measured utilization only
 * through queueing (an under-provisioned shard's pool saturates; its busy
 * time per request is load-independent once served), so demand estimates
 * are nearly invariant across iterations and the loop typically fixes in
 * 2-3 rounds. A max-iteration cap guards the pathological case.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "core/sharding_plan.h"
#include "dc/replication.h"
#include "model/model_spec.h"
#include "workload/request_generator.h"

namespace dri::sched {

/** Loop parameters. */
struct ProvisionLoopConfig
{
    /** Target offered rate the deployment must sustain. */
    double qps = 600.0;
    /** Per-replica worker-pool utilization ceiling dc::provision sizes to. */
    double target_utilization = 0.6;
    /** Fixed-point iteration cap. */
    int max_iterations = 6;
    /** Per-shard replica clamp (providers cap replication in practice). */
    int min_replicas = 1;
    int max_replicas = 8;
};

/** One simulate->measure->re-provision round. */
struct ProvisionIteration
{
    /** Replica vector the round simulated with. */
    std::vector<int> replicas;
    /** Measured per-shard busy core-milliseconds per offered request. */
    std::vector<double> shard_cpu_ms_per_request;
    /** Mean worker-pool utilization across each shard's replicas. */
    std::vector<double> shard_utilization;
    /** Replica vector dc::provision derives from the measurements. */
    std::vector<int> provisioned;
    double p99_ms = 0.0;
    /** Fraction of the offered requests admission control shed. */
    double shed_rate = 0.0;
    double main_utilization = 0.0;
};

/** Loop outcome. */
struct ProvisionLoopResult
{
    /** Final replica vector (the fixed point when converged). */
    std::vector<int> replicas;
    /** True when an iteration reproduced its own replica vector. */
    bool converged = false;
    int iterations = 0;
    /** Served-request P99 of the final vector's simulation. */
    double p99_ms = 0.0;
    std::vector<ProvisionIteration> trace;

    int totalReplicas() const
    {
        int n = 0;
        for (int r : replicas)
            n += r;
        return n;
    }
};

/**
 * The provision->simulate->re-provision fixed-point iterator. The serving
 * config's sparse_replicas / sparse_replicas_per_shard fields seed the
 * first iteration; every subsequent iteration overrides
 * sparse_replicas_per_shard with the re-provisioned vector.
 */
class ProvisionLoop
{
  public:
    /**
     * Throws std::invalid_argument for a plan with no sparse shards,
     * qps <= 0, target_utilization <= 0, max_iterations < 1,
     * min_replicas < 1 or max_replicas < min_replicas.
     */
    ProvisionLoop(const model::ModelSpec &spec,
                  const core::ShardingPlan &plan,
                  core::ServingConfig serving, ProvisionLoopConfig config);

    /**
     * Simulate one replica vector at the target rate and measure what
     * dc::provision would derive from it. Pure (fresh simulation, no loop
     * state); run() composes it. Throws std::invalid_argument unless
     * `replicas` has one entry per plan shard and `requests` is
     * non-empty.
     */
    ProvisionIteration
    evaluate(const std::vector<int> &replicas,
             const std::vector<workload::Request> &requests);

    /**
     * Iterate to the replica-vector fixed point. The result's replicas
     * are always the last trace entry's: the vector it last simulated.
     * Throws std::invalid_argument for an empty request stream.
     */
    ProvisionLoopResult
    run(const std::vector<workload::Request> &requests);

  private:
    /** Copied: iterations must not dangle (same rule as CapacitySearch). */
    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    core::ServingConfig serving_;
    ProvisionLoopConfig cfg_;
};

/**
 * Spread `total` replicas over `shards` as evenly as possible (earlier
 * shards take the remainder): the homogeneous baseline a load-proportional
 * vector is judged against at equal replica budget. Throws
 * std::invalid_argument for shards <= 0.
 */
std::vector<int> evenReplicaSplit(int total, int shards);

} // namespace dri::sched
