/**
 * @file
 * Universal service-discovery stub: maps a logical shard id to one of its
 * replica server instances (Section III-C routes intermediate requests via
 * a universal service discovery protocol). Statelessness lets consecutive
 * requests land on different replicas, which is what makes the replica-
 * selection policy a free design axis: the directory supports blind
 * round-robin plus two load-aware policies (least-outstanding-requests and
 * power-of-two-choices) driven by a caller-installed load probe.
 *
 * Load ties are broken deterministically toward the lowest replica index
 * (registration order), so a given seed resolves identically on every
 * platform — which is what makes hedging's second-choice replica
 * reproducible. resolve() optionally excludes one server, the hedged
 * request's primary, so a backup never lands on the replica it is trying
 * to outrun.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
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

/** Replica registry and pluggable load-balancing resolver. */
class ServiceDirectory
{
  public:
    /**
     * Live load of a server instance (in-flight + queued requests).
     * Installed by the simulation; load-aware policies fall back to
     * round-robin while no probe is set.
     */
    using LoadProbe = std::function<std::size_t(int server_id)>;

    /** Register a replica server instance for a logical shard. */
    void registerReplica(int shard_id, int server_id);

    /** Number of replicas registered for the shard (0 if unknown). */
    std::size_t replicaCount(int shard_id) const;

    /**
     * Resolve the shard to a server id under the configured policy.
     * Returns std::nullopt if the shard has no registered replicas
     * (unknown shards are a caller error but must not crash the library).
     *
     * `exclude_server` (default: exclude nothing) removes one server from
     * consideration — the hedging path's "a different replica than the
     * primary". Returns std::nullopt if exclusion empties the candidate
     * set (single-replica shards cannot be hedged).
     */
    std::optional<int> resolve(int shard_id, int exclude_server = -1);

    /**
     * Resolve a *backup* (hedge) target: the least-outstanding replica of
     * the shard other than `exclude_server`, regardless of the primary
     * policy — the load probe power-of-two installs is exactly the signal
     * the hedger needs, and a backup that lands blindly on another deep
     * queue cannot outrun anything. Falls back to the configured policy
     * when no probe is installed. Returns std::nullopt when no other
     * replica exists.
     */
    std::optional<int> resolveBackup(int shard_id, int exclude_server);

    /**
     * All server ids registered for a shard; empty for unknown shards.
     */
    const std::vector<int> &replicas(int shard_id) const;

    /** Select the replica-choice policy (round-robin by default). */
    void setPolicy(LoadBalancePolicy policy, std::uint64_t seed = 0x10ad);

    /** Install (or clear, with nullptr) the live-load probe. */
    void setLoadProbe(LoadProbe probe);

    /**
     * Mark a server in or out of rotation — the health propagation hook
     * the fault layer calls after its discovery lag. Unhealthy servers
     * are excluded from every resolve()/resolveBackup() under every
     * policy; resolving a shard whose replicas are all unhealthy returns
     * std::nullopt (a graceful resolution error, never an assert).
     * Health state is orthogonal to registration: a restored server
     * rejoins rotation in its original registration slot.
     */
    void setServerHealth(int server_id, bool healthy);

    /** Whether a server is currently in rotation (default: healthy). */
    bool serverHealthy(int server_id) const;

    /** Healthy replicas currently resolvable for the shard. */
    std::size_t healthyReplicaCount(int shard_id) const;

  private:
    const std::vector<int> *candidates(int shard_id, int exclude_server,
                                       std::vector<int> &scratch) const;
    int pickLeastOutstanding(const std::vector<int> &servers) const;
    int pickPowerOfTwo(const std::vector<int> &servers);
    int pickRoundRobin(int shard_id, const std::vector<int> &servers);

    std::map<int, std::vector<int>> replicas_;
    std::map<int, std::size_t> next_;
    /**
     * Out-of-rotation servers. Kept as a (normally empty) set so the
     * all-healthy fast path in candidates() stays zero-copy and the
     * health feature is byte-invisible to fault-free replays.
     */
    std::set<int> unhealthy_;
    LoadBalancePolicy policy_ = LoadBalancePolicy::RoundRobin;
    LoadProbe probe_;
    stats::Rng rng_{0x10ad};
};

} // namespace dri::rpc
