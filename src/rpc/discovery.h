/**
 * @file
 * Universal service-discovery stub: maps a logical shard id to one of its
 * replica server instances (Section III-C routes intermediate requests via
 * a universal service discovery protocol). Statelessness lets consecutive
 * requests land on different replicas, which is what makes the replica-
 * selection policy a free design axis: the directory supports blind
 * round-robin plus two load-aware policies (least-outstanding-requests and
 * power-of-two-choices) that read the live load each resolution is handed.
 *
 * Servers are numbered densely and shard-major from 0: shard s owns one
 * contiguous run of server ids, the numbering the serving fan-out gives
 * its replica records. Load ties are broken deterministically toward the
 * lowest server id, so a given seed resolves identically on every
 * platform — which is what makes hedging's second-choice replica
 * reproducible. Resolution may exclude one server, the hedged request's
 * primary, so a backup never lands on the replica it is trying to outrun.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "stats/rng.h"

namespace dri::rpc {

/** Replica-selection policy used by ServiceDirectory::resolve. */
enum class LoadBalancePolicy
{
    /** Blind rotation across replicas (the paper's baseline). */
    RoundRobin,
    /** Pick the replica with the fewest in-flight + queued requests. */
    LeastOutstanding,
    /** Sample two distinct replicas uniformly, pick the less loaded. */
    PowerOfTwoChoices,
};

/** Short lower-case policy name for labels and JSON rows. */
const char *policyName(LoadBalancePolicy policy);

/** Replica registry and load-balancing resolver. */
class ServiceDirectory
{
  public:
    /**
     * Shard s gets max(1, replica_counts[s]) servers, numbered
     * shard-major from 0, all in rotation. `seed` seeds the
     * power-of-two draws.
     */
    ServiceDirectory(const std::vector<int> &replica_counts,
                     LoadBalancePolicy policy, std::uint64_t seed);

    /** Servers of `shard`, which must lie in [0, shard count). */
    int replicaCount(int shard) const
    {
        return first(shard + 1) - first(shard);
    }

    /**
     * Resolve the shard to a server id under the policy. `load(server)`
     * is a server's live load (in-flight + queued requests), read only
     * by the load-aware policies. `exclude` (-1: nothing) removes one
     * server from consideration — the hedging path's "a different
     * replica than the primary". Returns std::nullopt when exclusion and
     * health leave no candidate (single-replica shards cannot be hedged).
     */
    template <class Load>
    std::optional<int> resolve(int shard, int exclude, const Load &load);

    /**
     * Resolve a *backup* (hedge) target: the least-loaded candidate of
     * the shard other than `exclude`, regardless of the policy — a
     * backup that lands blindly on another deep queue cannot outrun
     * anything. This is also the least-outstanding policy's pick.
     * Returns std::nullopt when no candidate exists.
     */
    template <class Load>
    std::optional<int> resolveBackup(int shard, int exclude,
                                     const Load &load) const;

    /**
     * Mark a server in or out of rotation — the health propagation hook
     * the fault layer calls after its discovery lag. Unhealthy servers
     * are excluded from every resolve()/resolveBackup() under every
     * policy; resolving a shard whose replicas are all unhealthy returns
     * std::nullopt (a graceful resolution error, never an assert). A
     * restored server rejoins rotation at its own id. Throws
     * std::out_of_range for an id past the last server.
     */
    void setServerHealth(int server, bool healthy);

  private:
    int first(int shard) const
    {
        return first_[static_cast<std::size_t>(shard)];
    }
    bool isCandidate(int server, int exclude) const
    {
        return server != exclude &&
               in_rotation_[static_cast<std::size_t>(server)] != 0;
    }
    /** Candidates of the shard, in server-id order: count and k-th. */
    int candidateCount(int shard, int exclude) const;
    int candidateAt(int shard, int exclude, int k) const;

    LoadBalancePolicy policy_;
    /** Shard s owns servers [first_[s], first_[s + 1]). */
    std::vector<int> first_;
    /** Per-shard round-robin cursor over the filtered candidates. */
    std::vector<std::size_t> cursor_;
    /** Per-server health: 1 while in rotation. */
    std::vector<char> in_rotation_;
    stats::Rng rng_;
};

template <class Load>
std::optional<int>
ServiceDirectory::resolveBackup(int shard, int exclude, const Load &load) const
{
    // The strict `<` keeps the lowest server id among equal loads, so
    // ties resolve identically on every platform.
    std::optional<int> best;
    std::size_t best_load = 0;
    for (int s = first(shard); s < first(shard + 1); ++s) {
        if (!isCandidate(s, exclude))
            continue;
        const std::size_t l = load(s);
        if (!best || l < best_load) {
            best = s;
            best_load = l;
        }
    }
    return best;
}

template <class Load>
std::optional<int>
ServiceDirectory::resolve(int shard, int exclude, const Load &load)
{
    if (policy_ == LoadBalancePolicy::LeastOutstanding)
        return resolveBackup(shard, exclude, load);
    const int n = candidateCount(shard, exclude);
    if (n == 0)
        return std::nullopt;
    if (n == 1)
        return candidateAt(shard, exclude, 0);
    if (policy_ == LoadBalancePolicy::RoundRobin) {
        // The cursor indexes the filtered candidates, and a lone
        // candidate leaves it alone: pinned replays depend on both.
        std::size_t &cursor = cursor_[static_cast<std::size_t>(shard)];
        const std::size_t k = cursor % static_cast<std::size_t>(n);
        cursor = k + 1;
        return candidateAt(shard, exclude, static_cast<int>(k));
    }
    const auto a = static_cast<int>(rng_.uniformInt(0, n - 1));
    // Second choice drawn from the remaining n-1, so a != b always.
    auto b = static_cast<int>(rng_.uniformInt(0, n - 2));
    if (b >= a)
        ++b;
    const int server_a = candidateAt(shard, exclude, a);
    const int server_b = candidateAt(shard, exclude, b);
    const std::size_t load_a = load(server_a);
    const std::size_t load_b = load(server_b);
    if (load_a != load_b)
        return load_b < load_a ? server_b : server_a;
    // Equal loads: take the lower server id, not the first sample, so
    // the outcome depends only on *which* pair was drawn.
    return std::min(server_a, server_b);
}

} // namespace dri::rpc
