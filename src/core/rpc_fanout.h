/**
 * @file
 * The sparse-RPC fan-out: it races each logical sparse RPC of a batch
 * across the replica servers (hedging, failover, faults) and decides it.
 *
 * The request side (core/serving.cc) lists each batch's RpcCalls and
 * hands them to RpcFanout::send; it sees an op only as an opaque
 * RpcOp *. Each call is one logical sparse RPC (an "op") raced by up to
 * two attempts, the primary and an optional hedge backup:
 *
 *   op:       Open --an attempt finishes service first--> Won
 *             Open --its request is shed mid-flight-----> Shed
 *
 *   attempt:  Pending --core granted--> Executing --busy period ends--> Done
 *             (on the wire or queued)       |
 *                                           +--aborted or lost---> Aborted
 *
 * Once an op is decided (Won or Shed) it stays decided, and every other
 * attempt retires without a response. Deciding an op aborts every
 * attempt still executing on it, so no attempt executes past its op's
 * decision; one that reaches the end of its busy period on a decided op
 * throws std::logic_error. What each ending counts — hedge counters
 * count backups only, fault counters count every attempt:
 *
 *   - Done on an Open op: the winner; a backup counts HedgeStats::wins.
 *   - Aborted by the winning sibling: a backup counts a loss, and the
 *     busy time it consumed counts as wasted, in
 *     HedgeStats::wasted_busy_ns and in its request's
 *     RequestStats::hedge_wasted_cpu_ns; the request is refunded the
 *     rest.
 *   - Aborted by a mid-flight shed: a backup counts cancelled; the
 *     request is refunded the unexecuted rest. The op counts in
 *     ServingMetrics::shed_cancelled_rpcs.
 *   - Aborted because its replica died mid-service: counts
 *     FaultStats::lost_in_service and fails like a Pending one.
 *   - Pending when its op is decided: a backup counts cancelled.
 *   - Pending when its target proves unreachable (partition, dead or
 *     unresolvable replica, queue lost in a crash; each counted in
 *     FaultStats): a backup counts cancelled; a primary fails over
 *     (FaultStats::retries) as a fresh Pending attempt, or once retries
 *     run out sheds its request (FaultStats::upstream_failures).
 *
 * An op charges its request only through the RequestStats it carries
 * while it is open or being decided; a request's shed clears it, so no
 * code can charge a request whose stats are already out. The fan-out
 * calls up into the request side in exactly two places (Owner).
 */
#pragma once

#include <cmath>

#include "core/serving.h"
#include "obs/span.h"
#include "sim/pool.h"

namespace dri::core {

struct BatchState; // core/serving.cc; opaque to the fan-out
struct RpcOp;      // core/rpc_fanout.cc; opaque to the request side

/** `ns` of reference-platform CPU time on a platform of `cpu_scale`. */
inline sim::Duration
scaled(double ns, double cpu_scale)
{
    return static_cast<sim::Duration>(std::llround(ns * cpu_scale));
}

/**
 * Timing of one RPC attempt, filled in as it runs: when the client
 * issued it and the Section IV-B split of its remote time. CPU
 * accounting reads it, and the winner's copy is handed to the request
 * side (Owner::responseLanded).
 */
struct AttemptRecord
{
    sim::SimTime dispatched = 0; //!< client issued the attempt
    sim::Duration queue = 0;     //!< wall: waiting for a core
    sim::Duration serde = 0;
    sim::Duration service = 0;
    sim::Duration net_overhead = 0;
    sim::Duration sparse_op = 0;

    sim::Duration
    remote() const
    {
        return queue + serde + service + net_overhead + sparse_op;
    }
};

/** One RPC fan-out target of a net (see fanoutGroups), static costs. */
struct FanoutTarget : FanoutGroup
{
    explicit FanoutTarget(FanoutGroup g) : FanoutGroup(std::move(g)) {}
    int net_id = 0;
    std::size_t gi = 0;            //!< index among the net's targets
    std::size_t shard_net_idx = 0; //!< into RequestStats::shard_net_op_ns
    double sum_dims = 0.0;         //!< Σ table dims (response sizing)
    double lookup_ns = 0.0;        //!< pooled per-row gather cost

    /** Result-cache key of a batch's pooled response from here. */
    rpc::ResultCache::Key
    cacheKey(std::int64_t batch_items, std::int64_t lookups,
             std::uint64_t content_hash, int batch_id) const
    {
        return {net_id, static_cast<int>(gi),
                rpc::resultSignature(batch_items, lookups, content_hash,
                                     batch_id)};
    }
};

/** One sparse RPC of a batch: where it goes and the lookups it carries. */
struct RpcCall
{
    const FanoutTarget *target = nullptr;
    std::int64_t lookups = 0;
};

/** One batch's fan-out, as the request side hands it to send(). */
struct FanoutBatch
{
    BatchState *bt = nullptr;       //!< handed back on the calls up
    RequestStats *st = nullptr;     //!< the request's stats, charged
    std::uint64_t content_hash = 0; //!< the request's (cache keys)
    int batch_id = 0;
    std::int64_t batch_items = 0;
    obs::SpanId parent = obs::kNoSpan; //!< the batch's EmbeddedWait span
};

/** The sparse-RPC layer of one deployment: replicas, ops and attempts. */
class RpcFanout
{
  public:
    /** The request side: the fan-out's only two calls up into it. */
    class Owner
    {
      public:
        /** The winning response of one of `bt`'s ops landed. */
        virtual void responseLanded(BatchState *bt, std::int64_t resp_bytes,
                                    const AttemptRecord &winner) = 0;
        /** A primary of `bt` failed past its retry budget. */
        virtual void upstreamFailed(BatchState *bt) = 0;

      protected:
        ~Owner() = default;
    };

    /**
     * Registers `cfg`'s replicas of each of `num_shards` shards with the
     * service directory. `tr` is null when tracing is off; `rng` keys
     * each attempt's counter stream. All must outlive the fan-out.
     */
    RpcFanout(sim::Engine &engine, obs::SpanTracer *tr,
              const ServingConfig &cfg, int num_shards, const stats::Rng &rng,
              Owner &owner);
    ~RpcFanout();

    RpcFanout(const RpcFanout &) = delete;
    RpcFanout &operator=(const RpcFanout &) = delete;

    /**
     * Send batch `b`'s calls, each as an op appended to `ops`, under
     * one hedge timer.
     */
    void send(const FanoutBatch &b, const std::vector<RpcCall> &calls,
              std::vector<RpcOp *> &ops);

    /**
     * The request of `ops` is shed: decide every open op Shed (aborting
     * its executing attempts) and clear every op's request stats.
     * Returns the number of ops that were open.
     */
    int cancel(const std::vector<RpcOp *> &ops);

    /** Drop the batch's reference to each of `ops`. */
    void release(const std::vector<RpcOp *> &ops);

    bool cacheEnabled() const { return result_cache.enabled(); }
    /** Probe the result cache for `key` now (cacheEnabled() only). */
    bool cacheHit(const rpc::ResultCache::Key &key)
    {
        return result_cache.lookup(key, engine.now());
    }

    // -- Control surface (ServingSimulation's, same contract) ---------------

    void invalidateResultCache() { result_cache.invalidate(); }
    /** killReplica (`dead`) or restoreReplica; `what` names the caller. */
    void setReplicaDead(int server, bool dead, const char *what);
    void degradeReplica(int server, double multiplier);
    void partitionShard(int shard, bool partitioned);

    // -- Reads ----------------------------------------------------------------

    /** Fill `out`'s servers, shards and RPC counters at `out.at`. */
    void addMetrics(ServingMetrics &out) const;
    /** Ops acquired and not yet released (0 once drained). */
    std::size_t liveOps() const { return op_pool.live(); }
    /** No replica core is held or queued. */
    bool replicasIdle() const;

  private:
    struct Replica;
    struct HedgeGroup;

    Replica &replicaAt(int server, const char *what);
    void derefOp(RpcOp *op);
    void attemptFailed(RpcOp *op, int idx);
    void chargeRemote(const RpcOp *op, const AttemptRecord &rec, double w);
    void retireAttempt(RpcOp *op, int idx, std::uint8_t flags);
    sim::Duration abortExecuting(RpcOp *op, int idx, std::uint8_t span_flags);
    void maybeScheduleHedge(RpcOp *op, HedgeGroup &hg);
    void hedgeTimerFired(RpcOp *op, sim::Duration deadline);
    void launchAttempt(RpcOp *op, int idx);
    void attemptArrive(RpcOp *op, int idx);
    void startExecution(RpcOp *op, int idx, sim::SimTime q0, int server);
    void finishExecution(RpcOp *op, int idx);
    void cancelSibling(RpcOp *op, int winner_idx);
    void responseArrive(RpcOp *op, int idx);

    sim::Engine &engine;
    obs::SpanTracer *const tr;
    const ServingConfig &cfg;
    const stats::Rng &rng;
    Owner &owner;
    /** Client CPU to dispatch one attempt on the main shard. */
    const sim::Duration client_dispatch;

    std::vector<Replica> replicas;
    rpc::ServiceDirectory directory;
    netsim::LinkModel link;
    /** Shards currently partitioned from the main shard. */
    std::vector<char> shard_partitioned;
    sim::ObjectPool<RpcOp> op_pool;

    /** Observed client-side RPC latencies; the hedge deadline's source. */
    rpc::LatencyTracker hedge_tracker;
    /**
     * Hedge outcome counters; wasted_busy_ns is the replica busy time
     * losing attempts consumed before the winner aborted them, and
     * total_busy_ns is filled in on read.
     */
    rpc::HedgeStats hedge_stats;
    rpc::ResultCache result_cache;
    FaultStats fault_stats;
    /** Ops cancelled by mid-flight sheds. */
    std::uint64_t shed_cancelled_rpcs = 0;
};

} // namespace dri::core
