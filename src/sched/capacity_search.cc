#include "sched/capacity_search.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <stdexcept>

#include "core/analysis.h"
#include "core/concurrency.h"

namespace dri::sched {

core::ServingConfig
sparseBoundStudyConfig(rpc::LoadBalancePolicy policy, int sparse_replicas,
                       std::uint64_t seed)
{
    core::ServingConfig cfg;
    cfg.seed = seed;
    cfg.worker_threads = 40;
    cfg.sparse_worker_threads = 2;
    cfg.lookup_base_ns = 400.0;
    cfg.lookup_ns_per_row_byte = 0.8;
    cfg.sparse_replicas = sparse_replicas;
    cfg.lb_policy = policy;
    return cfg;
}

core::ServingConfig
hedgeStudyConfig(rpc::LoadBalancePolicy policy, int sparse_replicas,
                 bool hedged, std::uint64_t seed)
{
    core::ServingConfig cfg = sparseBoundStudyConfig(policy,
                                                     sparse_replicas, seed);
    // Wider sparse pools than the LB study: queueing stays stable at high
    // rates, so the tail is straggler-dominated — the regime hedging
    // attacks (the LB study's 2-worker pools put the tail in chaotic
    // queue excursions instead, which no backup can outrun).
    cfg.sparse_worker_threads = 6;
    // Transient co-located-service interference: ~2% of RPC attempts run
    // 8x slower (serving.cc's kStragglerMultiplier). This is the
    // straggler tail the quantile deadline trips on; a re-rolled backup
    // almost never hits the same event.
    cfg.faults.straggler_prob = 0.02;
    cfg.hedge.enabled = hedged;
    cfg.hedge.quantile = 0.95;
    cfg.hedge.min_samples = 64;
    cfg.hedge.max_hedge_fraction = 0.10;
    return cfg;
}

CapacitySearch::CapacitySearch(const model::ModelSpec &spec,
                               const core::ShardingPlan &plan,
                               core::ServingConfig serving,
                               CapacitySearchConfig search)
    : spec_(spec), plan_(plan), serving_(std::move(serving)),
      search_(std::move(search))
{
    // Checked in every build type: run()'s geometric grid loop never
    // terminates unless qps_lo > 0 and grid_step > 1 (NaN included).
    if (!(search_.qps_lo > 0.0) || !std::isfinite(search_.qps_lo))
        throw std::invalid_argument(
            "CapacitySearch: qps_lo must be finite and > 0");
    if (!(search_.qps_hi >= search_.qps_lo) ||
        !std::isfinite(search_.qps_hi))
        throw std::invalid_argument(
            "CapacitySearch: qps_hi must be finite and >= qps_lo");
    if (!(search_.grid_step > 1.0) || !std::isfinite(search_.grid_step))
        throw std::invalid_argument(
            "CapacitySearch: grid_step must be finite and > 1");
}

CapacityProbe
CapacitySearch::probe(double qps,
                      const std::vector<workload::Request> &requests)
{
    core::ServingSimulation sim(spec_, plan_, serving_);
    std::vector<core::RequestStats> stats;
    if (search_.use_batcher)
        stats = runBatchedOpenLoop(sim, requests, qps, search_.batcher,
                                   search_.arrival_seed);
    else
        stats = sim.replayOpenLoop(requests, qps);

    const auto q = core::latencyQuantiles(stats);
    CapacityProbe p;
    p.qps = qps;
    p.p99_ms = q.p99_ms;
    p.p999_ms = q.p999_ms;
    p.shed_rate = core::shedRate(stats);
    p.feasible = search_.slo.met(p.p99_ms, p.shed_rate);
    const rpc::HedgeStats h = sim.metrics().hedge;
    p.hedge_rate = h.hedgeRate();
    p.hedge_wasted_frac = h.wastedFraction();
    return p;
}

CapacityResult
CapacitySearch::run(const std::vector<workload::Request> &requests)
{
    // Probes run concurrently, so they must not share a mutable observer.
    if (serving_.tracer != nullptr || serving_.latency_feed != nullptr)
        throw std::invalid_argument(
            "CapacitySearch::run: probes run concurrently; detach the "
            "tracer and latency feed (probe() takes them)");

    // Geometric QPS grid, endpoints included.
    std::vector<double> grid;
    for (double q = search_.qps_lo; q < search_.qps_hi;
         q *= search_.grid_step)
        grid.push_back(q);
    grid.push_back(search_.qps_hi);

    // Probe results by grid index. A round probes every listed index not
    // yet probed, all at once.
    std::vector<std::optional<CapacityProbe>> probed(grid.size());
    const auto probeRound = [&](std::initializer_list<std::size_t> round) {
        std::vector<std::size_t> todo;
        for (const std::size_t i : round)
            if (!probed[i] &&
                std::find(todo.begin(), todo.end(), i) == todo.end())
                todo.push_back(i);
        core::runConcurrently(todo.size(), [&](std::size_t k) {
            probed[todo[k]] = probe(grid[todo[k]], requests);
        });
    };

    // The sequential search, reading probes from the rounds: it records
    // exactly the probes a one-at-a-time search makes, in its order.
    CapacityResult result;
    const auto record = [&](std::size_t idx) {
        result.probes.push_back(*probed[idx]);
        return result.probes.back().feasible;
    };

    const std::size_t last = grid.size() - 1;
    probeRound({0, last});
    if (!record(0))
        return result; // max_qps = 0: even the floor rate misses the SLO
    if (record(last)) {
        result.max_qps = grid.back();
        return result; // capacity exceeds the search range
    }

    // Invariant: grid[lo] feasible, grid[hi] infeasible. A round probes
    // mid and both candidates for the next mid, so it settles two
    // bisection levels.
    std::size_t lo = 0, hi = last;
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (!probed[mid])
            probeRound({mid, lo + (mid - lo) / 2, mid + (hi - mid) / 2});
        if (record(mid))
            lo = mid;
        else
            hi = mid;
    }
    result.max_qps = grid[lo];
    return result;
}

} // namespace dri::sched
