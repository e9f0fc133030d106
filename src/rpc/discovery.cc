#include "rpc/discovery.h"

namespace dri::rpc {

const char *
policyName(LoadBalancePolicy policy)
{
    switch (policy) {
    case LoadBalancePolicy::RoundRobin:
        return "round-robin";
    case LoadBalancePolicy::LeastOutstanding:
        return "least-outstanding";
    case LoadBalancePolicy::PowerOfTwoChoices:
        return "power-of-two";
    }
    return "unknown";
}

ServiceDirectory::ServiceDirectory(const std::vector<int> &replica_counts,
                                   LoadBalancePolicy policy,
                                   std::uint64_t seed)
    : policy_(policy), first_{0}, cursor_(replica_counts.size(), 0),
      rng_(seed)
{
    for (const int count : replica_counts)
        first_.push_back(first_.back() + std::max(1, count));
    in_rotation_.assign(static_cast<std::size_t>(first_.back()), 1);
}

int
ServiceDirectory::candidateCount(int shard, int exclude) const
{
    int n = 0;
    for (int s = first(shard); s < first(shard + 1); ++s)
        n += isCandidate(s, exclude) ? 1 : 0;
    return n;
}

int
ServiceDirectory::candidateAt(int shard, int exclude, int k) const
{
    int s = first(shard);
    while (!isCandidate(s, exclude) || k-- > 0)
        ++s;
    return s;
}

void
ServiceDirectory::setServerHealth(int server, bool healthy)
{
    in_rotation_.at(static_cast<std::size_t>(server)) = healthy ? 1 : 0;
}

} // namespace dri::rpc
