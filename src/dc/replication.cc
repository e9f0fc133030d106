#include "dc/replication.h"

#include <cassert>
#include <cmath>

namespace dri::dc {

std::int64_t
DeploymentPlan::totalMemoryBytes() const
{
    std::int64_t total = 0;
    for (const auto &s : shards)
        total += s.total_memory_bytes;
    return total;
}

int
DeploymentPlan::totalReplicas() const
{
    int total = 0;
    for (const auto &s : shards)
        total += s.replicas;
    return total;
}

double
DeploymentPlan::totalPowerWatts() const
{
    double total = 0.0;
    for (const auto &s : shards)
        total += s.power_watts;
    return total;
}

bool
fits(const ShardDemand &demand, const Platform &platform)
{
    return demand.model_bytes <= platform.usableModelBytes();
}

DeploymentPlan
provision(const std::vector<ShardDemand> &demands, const Platform &platform,
          double qps, double target_utilization)
{
    assert(qps > 0.0 && target_utilization > 0.0);
    DeploymentPlan plan;
    for (const auto &d : demands) {
        ShardProvision p;
        p.name = d.name;

        // Core-seconds demanded per second of wall clock.
        const double cpu_cores_needed = qps * d.cpu_ms_per_request / 1000.0;
        const double cores_per_replica =
            static_cast<double>(platform.cores) * target_utilization;
        p.replicas = std::max(
            1, static_cast<int>(std::ceil(cpu_cores_needed /
                                          cores_per_replica)));
        p.total_memory_bytes =
            static_cast<std::int64_t>(p.replicas) * d.model_bytes;
        p.cpu_utilization =
            cpu_cores_needed /
            (static_cast<double>(p.replicas * platform.cores));
        p.power_watts = static_cast<double>(p.replicas) *
                        platform.powerWatts(p.cpu_utilization);
        plan.shards.push_back(p);
    }
    return plan;
}

} // namespace dri::dc
