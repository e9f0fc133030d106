/**
 * @file
 * Closed-loop SLO-driven capacity search.
 *
 * The paper's high-QPS experiment (Fig. 16) evaluates hand-picked rates;
 * the operational question is the inverse: what is the *maximum* QPS a
 * deployment sustains subject to a tail-latency SLO? CapacitySearch
 * answers it by probing a geometric QPS grid with fresh simulations
 * (identical request stream and seeds per probe, so probes are paired)
 * and binary-searching the feasibility boundary: a probe is feasible when
 * served-request P99 meets the SLO and the shed rate stays under its cap.
 * Searching a fixed grid keeps results deterministic and comparable
 * across deployments — capacity is monotone in sparse replicas because
 * the per-grid-point feasibility is.
 *
 * Probes are independent, so run() makes them in speculative rounds on
 * std::threads (the calling thread takes one): first both endpoints,
 * then each round the bisection midpoint and both candidates for the
 * next one, settling two levels per round. The result then records
 * exactly the probes a one-at-a-time search makes, in its order, and
 * drops the speculative ones it would not have visited, so it is
 * byte-identical to the sequential search. Rounds are fixed by the grid
 * and the probe outcomes alone, never by the host; a 2^k-point search
 * makes about 1.5x the probes in half the rounds.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "core/sharding_plan.h"
#include "model/model_spec.h"
#include "workload/request_generator.h"

namespace dri::sched {

/**
 * The canonical overload-study deployment: a wide main-shard pool, two
 * workers per sparse replica, and expensive gathers, which makes the
 * sparse tier the contention point — the regime where replica load
 * balancing and replication-driven capacity matter. Shared by
 * bench_sched_policies, examples/slo_explorer, and the sched tests so
 * their self-checks all measure the same deployment.
 */
core::ServingConfig
sparseBoundStudyConfig(rpc::LoadBalancePolicy policy, int sparse_replicas,
                       std::uint64_t seed = 0xd15c0);

/**
 * The hedging-study deployment: sparseBoundStudyConfig plus transient
 * sparse-server interference (the straggler phenomenon hedging dodges)
 * and a hedge policy armed with the study's defaults. `hedged` toggles
 * the hedger only — interference is on either way, so hedged/unhedged
 * comparisons face the identical straggler process. Shared by
 * bench_sched_policies and the hedge property tests.
 */
core::ServingConfig
hedgeStudyConfig(rpc::LoadBalancePolicy policy, int sparse_replicas,
                 bool hedged, std::uint64_t seed = 0xd15c0);

/** The service-level objective a deployment must meet. */
struct SloSpec
{
    /** Served-request P99 E2E latency bound, milliseconds. */
    double p99_ms = 20.0;
    /** Max fraction of requests admission control may shed. */
    double max_shed_rate = 0.01;

    /**
     * The feasibility rule: true when a run's served-request P99 and
     * shed rate both stay within the objective.
     */
    bool met(double run_p99_ms, double run_shed_rate) const
    {
        return run_p99_ms <= p99_ms && run_shed_rate <= max_shed_rate;
    }
};

/** Search-space and probe parameters. */
struct CapacitySearchConfig
{
    SloSpec slo;
    /** QPS grid bounds (geometric grid between them). */
    double qps_lo = 20.0;
    double qps_hi = 4000.0;
    /** Geometric grid step; capacity resolution is one step. */
    double grid_step = 1.05;
    /**
     * Read by no probe: every probe's arrivals come from
     * ServingSimulation::replayOpenLoop, seeded by ServingConfig::seed.
     * Kept only because the fixed bench_e2e harness still writes it.
     */
    std::uint64_t arrival_seed = 0xa881;
};

/** One probed operating point. */
struct CapacityProbe
{
    double qps = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double shed_rate = 0.0;
    bool feasible = false;
    /** Backups per primary RPC (zero when hedging is off). */
    double hedge_rate = 0.0;
    /** Fraction of sparse-tier busy time wasted on losing attempts. */
    double hedge_wasted_frac = 0.0;
};

/** Outcome of a capacity search. */
struct CapacityResult
{
    /**
     * Highest grid QPS meeting the SLO; 0 when even qps_lo is infeasible.
     * Equal to qps_hi when the whole grid is feasible (the deployment's
     * capacity exceeds the search range).
     */
    double max_qps = 0.0;
    std::vector<CapacityProbe> probes;
};

/**
 * Binary-searches the max sustainable QPS of one deployment. Every probe
 * constructs a fresh ServingSimulation from the same (spec, plan,
 * serving config), so state never leaks between operating points.
 */
class CapacitySearch
{
  public:
    /**
     * Throws std::invalid_argument, in every build type, unless
     * 0 < qps_lo <= qps_hi and grid_step > 1, all finite.
     */
    CapacitySearch(const model::ModelSpec &spec,
                   const core::ShardingPlan &plan,
                   core::ServingConfig serving,
                   CapacitySearchConfig search);

    /**
     * Probe one operating point (does not touch the search state). Safe
     * to call concurrently when no observer is attached.
     */
    CapacityProbe probe(double qps,
                        const std::vector<workload::Request> &requests);

    /**
     * Run the grid search over the given request stream. Throws
     * std::invalid_argument when the serving config carries a tracer:
     * concurrent probes would share the observer.
     */
    CapacityResult run(const std::vector<workload::Request> &requests);

  private:
    /** Copied, like plan_ and the configs: probes must not dangle. */
    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    core::ServingConfig serving_;
    CapacitySearchConfig search_;
};

} // namespace dri::sched
