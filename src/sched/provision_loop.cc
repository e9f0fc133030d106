#include "sched/provision_loop.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/analysis.h"

namespace dri::sched {

std::vector<int>
evenReplicaSplit(int total, int shards)
{
    if (shards <= 0)
        throw std::invalid_argument("evenReplicaSplit: shards must be > 0");
    std::vector<int> out(static_cast<std::size_t>(shards), total / shards);
    for (int i = 0; i < total % shards; ++i)
        ++out[static_cast<std::size_t>(i)];
    for (auto &r : out)
        r = std::max(1, r);
    return out;
}

ProvisionLoop::ProvisionLoop(const model::ModelSpec &spec,
                             const core::ShardingPlan &plan,
                             core::ServingConfig serving,
                             ProvisionLoopConfig config)
    : spec_(spec), plan_(plan), serving_(std::move(serving)),
      cfg_(config)
{
    if (plan_.numShards() <= 0)
        throw std::invalid_argument(
            "ProvisionLoop: the plan has no sparse shards");
    if (!(cfg_.qps > 0.0))
        throw std::invalid_argument("ProvisionLoop: qps must be > 0");
    if (!(cfg_.target_utilization > 0.0))
        throw std::invalid_argument(
            "ProvisionLoop: target_utilization must be > 0");
    if (cfg_.max_iterations < 1)
        throw std::invalid_argument(
            "ProvisionLoop: max_iterations must be >= 1");
    if (cfg_.min_replicas < 1)
        throw std::invalid_argument(
            "ProvisionLoop: min_replicas must be >= 1");
    if (cfg_.max_replicas < cfg_.min_replicas)
        throw std::invalid_argument(
            "ProvisionLoop: max_replicas must be >= min_replicas");
}

ProvisionIteration
ProvisionLoop::evaluate(const std::vector<int> &replicas,
                        const std::vector<workload::Request> &requests)
{
    const auto shards = static_cast<std::size_t>(plan_.numShards());
    if (replicas.size() != shards)
        throw std::invalid_argument(
            "ProvisionLoop: the replica vector needs one entry per shard");

    core::ServingConfig cfg = serving_;
    cfg.sparse_replicas_per_shard = replicas;
    core::ServingSimulation sim(spec_, plan_, cfg);
    const auto stats = sim.replayOpenLoop(requests, cfg_.qps);

    ProvisionIteration it;
    it.replicas = replicas;
    it.p99_ms = core::latencyQuantiles(stats).p99_ms;
    it.shed_rate = core::shedRate(stats);
    const core::ServingMetrics m = sim.metrics();
    it.main_utilization = m.main_utilization;

    // Measured demand: each shard's busy core-time across its replicas,
    // amortized over the offered request stream. Queueing delays shift
    // *when* the work runs, not how much there is, so the estimate is
    // nearly invariant to the replica vector it was measured under —
    // which is what makes the fixed-point iteration converge.
    const auto offered = static_cast<double>(requests.size());
    for (const core::ShardLoad &load : m.shards) {
        it.shard_cpu_ms_per_request.push_back(load.busy_core_ms / offered);
        it.shard_utilization.push_back(load.utilization);
    }

    // Feed the measurements back through dc::provision. Replicas are
    // sized against the *worker pool* (the cores the service actually
    // uses), not the whole SKU, so provision sees a platform whose core
    // count is the pool the simulation actually ran with.
    dc::Platform pool_platform = cfg.sparse_platform;
    pool_platform.cores =
        m.servers.empty() ? 0 : static_cast<int>(m.servers.front().pool_size);

    std::vector<dc::ShardDemand> demands;
    demands.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        dc::ShardDemand d;
        d.name = "sparse" + std::to_string(s);
        d.cpu_ms_per_request = it.shard_cpu_ms_per_request[s];
        d.model_bytes = static_cast<std::int64_t>(
            plan_.capacityBytes(spec_, static_cast<int>(s)));
        demands.push_back(d);
    }
    const dc::DeploymentPlan dp = dc::provision(
        demands, pool_platform, cfg_.qps, cfg_.target_utilization);

    it.provisioned.assign(shards, cfg_.min_replicas);
    for (std::size_t s = 0; s < shards; ++s)
        it.provisioned[s] =
            std::clamp(dp.shards[s].replicas, cfg_.min_replicas,
                       cfg_.max_replicas);
    return it;
}

ProvisionLoopResult
ProvisionLoop::run(const std::vector<workload::Request> &requests)
{
    const auto shards = static_cast<std::size_t>(plan_.numShards());

    // Seed vector: the serving config's own replica layout.
    std::vector<int> current(shards,
                             std::max(1, serving_.sparse_replicas));
    for (std::size_t s = 0;
         s < std::min(shards, serving_.sparse_replicas_per_shard.size());
         ++s)
        if (serving_.sparse_replicas_per_shard[s] > 0)
            current[s] = serving_.sparse_replicas_per_shard[s];

    ProvisionLoopResult result;
    for (int i = 0; i < cfg_.max_iterations; ++i) {
        ProvisionIteration it = evaluate(current, requests);
        result.trace.push_back(it);
        result.iterations = i + 1;
        result.p99_ms = it.p99_ms;
        if (it.provisioned == current) {
            result.converged = true;
            break;
        }
        // On exhaustion keep the last *simulated* vector: the result's
        // p99_ms must describe the replicas it reports.
        if (i + 1 < cfg_.max_iterations)
            current = it.provisioned;
    }
    result.replicas = current;
    return result;
}

} // namespace dri::sched
