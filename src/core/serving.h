/**
 * @file
 * The distributed-inference serving simulation (Sections III & V).
 *
 * A ServingSimulation materializes one serving deployment — a main shard
 * plus the sparse shards of a ShardingPlan, each a simulated server with a
 * worker-core pool behind a Thrift-like service — and replays a request
 * stream through it on a discrete-event engine. Request lifecycles follow
 * the paper's pipeline exactly:
 *
 *   main shard:  deserialize -> per net (sequential): per batch (parallel):
 *                net overhead + bottom dense -> sparse phase -> top dense
 *                -> response serialize
 *   sparse phase: inline SLS (singular) or asynchronous RPC fan-out to
 *                every shard holding this net's tables; the worker core is
 *                RELEASED while waiting (async RPC ops), which is what buys
 *                tail latency back under load (Fig. 16)
 *   sparse shard: network -> queue -> handler + deserde + net overhead +
 *                SLS + response serde -> network
 *
 * Timing comes from calibrated cost models; values are not computed (the
 * test-only functional oracle in tests/oracle/ covers numerics). All
 * randomness is seeded.
 *
 * A request on the main shard is in one of three states:
 *
 *   request:  Live --last net's batches drained--> Finishing --> served
 *             Live --deadline timer or upstream failure--> Shed
 *
 * Live covers the main-core queue, every net and the fan-out. A request
 * rejected at arrival (queue full) or dropped at its first core grant
 * (deadline already passed) emits its stats straight from Live. Shed
 * emits them at once; the request's batches then drain without charging
 * new work, and the last one recycles the request. Finishing is past
 * the point of useful shedding, so the deadline timer stands down. Any
 * other transition throws std::logic_error.
 *
 * Each fan-out group of a batch is one logical sparse RPC (an "op"),
 * raced by a primary and an optional hedge attempt; core/rpc_fanout.h
 * diagrams the op and attempt lifecycles and what each ending counts.
 *
 * Common random numbers: an attempt's draws (wire jitter out and back,
 * the straggler roll) come from its own stats::CounterStream keyed
 * Rng(seed).forkSeed(attemptSalt(...)), a pure function of the attempt's
 * identity. No draw depends on launch order, pool recycling or any
 * other attempt, so paired runs (hedging on vs off, one batching policy
 * vs another) face identical per-attempt randomness and their deltas
 * measure the policy, not reshuffled noise. The other streams (request
 * arrivals, load balancing) are Mt64-backed stats::Rng streams.
 *
 * Per-RPC state lives only while the RPC is in flight; no per-response
 * log is kept. RequestStats::emb_* split each request's slowest RPC as
 * Section IV-B does (network = outstanding - remote E2E). Per RPC, read
 * the span tree: an RpcAttempt runs from dispatch to response, and its
 * RemoteQueue and RemoteCompute children are the remote E2E.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/request_stats.h"
#include "core/sharding_plan.h"
#include "dc/platform.h"
#include "netsim/link_model.h"
#include "rpc/discovery.h"
#include "rpc/hedge.h"
#include "rpc/result_cache.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

namespace dri::cache {
class CachedLookupModel;
}

namespace dri::obs {
class SpanTracer;
}

namespace dri::core {

/**
 * The common-random-numbers identity of one RPC attempt: the salt its
 * counter stream is keyed by (see the file comment). Failover relaunches
 * (retries > 0) are new attempts and get a fresh identity; retries == 0
 * on every fault-free path, so the identities — and therefore paired
 * runs — are unchanged when no fault fires.
 */
inline std::uint64_t
attemptSalt(std::uint64_t request_id, int net_id, int batch_id,
            std::size_t gi, bool is_hedge, int retries)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t salt = request_id + 1;
    salt = salt * kPrime ^ static_cast<std::uint64_t>(net_id + 1);
    salt = salt * kPrime ^ static_cast<std::uint64_t>(batch_id + 1);
    salt = salt * kPrime ^ (gi + 1);
    salt = salt * kPrime ^ (is_hedge ? 2u : 1u);
    if (retries > 0)
        salt = salt * kPrime ^ static_cast<std::uint64_t>(retries + 2);
    return salt;
}

/**
 * Admission control / load shedding at the main shard (src/sched's
 * overload experiments). Both mechanisms are off by default so every
 * pre-existing experiment is unchanged.
 */
struct AdmissionConfig
{
    /**
     * Reject arrivals outright once this many requests are waiting for a
     * main-shard worker core (0 = unbounded queue). The classic
     * queue-length cap: bounds memory and worst-case queueing delay.
     */
    int max_main_queue = 0;
    /**
     * Deadline-aware shedding: a request that is still queued when its
     * age exceeds this deadline is dropped at core-grant time instead of
     * executed (0 = disabled). Sheds exactly the work that could no
     * longer meet its SLO, so capacity is not wasted on doomed requests.
     */
    sim::Duration deadline_ns = 0;
    /**
     * Enforce the deadline *after* admission too: a request whose
     * deadline expires while it is executing is shed mid-flight and its
     * outstanding sparse RPCs are cancelled — queued attempts release
     * their slots, executing attempts abort and refund their remaining
     * busy time (the tied-request mechanism hedging already uses), and
     * in-flight responses are discarded on arrival. Without this, a shed
     * only ever happens before execution, so a doomed request's fan-out
     * keeps burning sparse-tier capacity after the client has given up
     * on it. Off by default; setting it with deadline_ns <= 0 makes the
     * ServingSimulation constructor throw std::invalid_argument.
     */
    bool cancel_in_flight = false;
};

/**
 * Replica misbehavior, transient and injected (off by default). The
 * straggler field models *stochastic* interference drawn per attempt
 * from the common-random-numbers identity stream; the remaining fields
 * parameterize the *injected* fault paths driven through the runtime
 * control surface (ServingSimulation::killReplica and friends) and the
 * fleet-level fleet::FaultSchedule built on top of it.
 *
 * Purity contract: with a default-constructed PerturbationConfig and no
 * control-surface calls, every fault path is inert — no extra RNG
 * draws, no extra events — so replays are byte-identical to a build
 * without the fault layer (enforced by the stress grid and the fleet
 * fingerprint goldens).
 */
struct PerturbationConfig
{
    /**
     * Transient sparse-server interference: with this probability, an
     * RPC attempt's remote execution runs kStragglerMultiplier
     * (core/rpc_fanout.cc) times slower — the co-located-service/NUMA
     * interference that makes one replica momentarily a straggler while
     * its siblings stay fast. This is the
     * tail phenomenon hedging exists to dodge: a re-rolled backup on
     * another replica almost never hits the same slow event. Unlike
     * a degradeReplica() slowdown, this re-rolls on every attempt.
     */
    double straggler_prob = 0.0;
    /**
     * Client-side timeout on a sparse RPC attempt whose target is
     * unreachable (dead replica, partitioned shard, work lost in a
     * crash). Reachable targets never consult this — the simulation
     * models their latency explicitly — so it only shapes how long a
     * fault takes to surface as a failover retry or upstream failure.
     */
    sim::Duration rpc_timeout_ns = 20'000'000;
    /**
     * Lag between killReplica()/restoreReplica() and the service
     * directory reflecting the new health — the detection gap during
     * which discovery still routes primaries at a dead replica and
     * hedging is the only mask.
     */
    sim::Duration discovery_lag_ns = 50'000'000;
};

/**
 * Counters of the injected-fault machinery, one struct per deployment.
 * All zero when the control surface is never exercised.
 */
struct FaultStats
{
    /** killReplica() calls that transitioned a replica to dead. */
    std::uint64_t kills = 0;
    /** restoreReplica() calls that revived a dead replica. */
    std::uint64_t restores = 0;
    /** Attempts dispatched at a dead replica (pre-discovery window). */
    std::uint64_t dead_target_attempts = 0;
    /** Attempts dropped on the wire by a main<->shard partition. */
    std::uint64_t partition_drops = 0;
    /** Attempts whose replica died mid-service (queued or executing). */
    std::uint64_t lost_in_service = 0;
    /** Failover re-dispatches after an attempt failure. */
    std::uint64_t retries = 0;
    /** Attempts that found no resolvable live replica for their shard. */
    std::uint64_t resolution_failures = 0;
    /** Requests shed with ShedReason::UpstreamFailure (retries exhausted). */
    std::uint64_t upstream_failures = 0;
};

/** One plan shard's load, folded over its replica servers. */
struct ShardLoad
{
    /** Busy core-milliseconds summed over the shard's replicas. */
    double busy_core_ms = 0.0;
    /** Mean worker-pool utilization across the shard's replicas. */
    double utilization = 0.0;
};

/** One replica server's load at snapshot time. */
struct ServerMetrics
{
    int shard = 0;             //!< plan shard the server belongs to
    bool alive = true;         //!< not killed, or restored since
    double busy_core_ns = 0.0; //!< busy core-time integral so far
    /**
     * Worker cores: the resolved sparse_worker_threads / worker_threads
     * / platform-cores rule. Provisioning sizes replicas against this
     * pool, not the whole SKU.
     */
    std::size_t pool_size = 0;
    /** busy_core_ns over pool_size x elapsed simulated time, in [0, 1]. */
    double utilization = 0.0;
    /**
     * Peak (in-flight + queued) depth seen at RPC dispatch, the
     * load-balancing quality signal: a policy that spreads load keeps
     * the max across replicas low.
     */
    std::size_t peak_queue = 0;
};

/**
 * One pull-based snapshot of a deployment's load and outcome counters
 * (ServingSimulation::metrics): the per-shard busy time, replica
 * utilization and queue depth the paper's resource-efficiency comparison
 * reads, plus the hedge, result-cache and fault ledgers.
 */
struct ServingMetrics
{
    sim::SimTime at = 0;           //!< simulated time of the snapshot
    double main_utilization = 0.0; //!< main-shard worker pool, in [0, 1]
    /** One entry per replica server, indexed by server id. */
    std::vector<ServerMetrics> servers;
    /**
     * One entry per plan shard, folded over its servers: the measured
     * compute demand ProvisionLoop feeds back into dc::provision, and the
     * load FleetSim bills power on.
     */
    std::vector<ShardLoad> shards;
    /**
     * Hedging outcome counters (all zero when hedging is off);
     * total_busy_ns is the sum of servers[].busy_core_ns.
     */
    rpc::HedgeStats hedge;
    /** Pooled-result cache counters (all zero when the cache is off). */
    rpc::ResultCacheStats result_cache;
    /** Injected-fault counters (all zero when faults never fired). */
    FaultStats faults;
    /**
     * Sparse RPC attempts cancelled because their request was shed
     * mid-flight (AdmissionConfig::cancel_in_flight).
     */
    std::uint64_t shed_cancelled_rpcs = 0;
};

/** Deployment + cost-model configuration. */
struct ServingConfig
{
    dc::Platform main_platform = dc::scLarge();
    dc::Platform sparse_platform = dc::scLarge();
    netsim::LinkConfig link;

    /** Base cost of one embedding-row gather (reference platform). */
    double lookup_base_ns = 20.0;
    /** Additional gather cost per stored row byte (locality effect). */
    double lookup_ns_per_row_byte = 0.04;
    /** Batch size override; 0 uses the model's production default. */
    int batch_size_override = 0;
    /**
     * Worker threads of the Thrift service on each shard (the pool that
     * executes batches). Smaller than the machine's core count — the rest
     * of the cores belong to the OS and co-located services. 0 means use
     * every platform core. Serial replays never exceed kRequestParallelism
     * (serving.cc) concurrent batches, so this only matters under
     * overlapping load (the Fig. 16 high-QPS experiment).
     */
    int worker_threads = 8;
    /**
     * Worker threads of the Thrift service on each sparse-shard replica;
     * 0 inherits worker_threads. Sparse shards run small pools in
     * practice (they co-locate many shards per host and may use the
     * SC-Small SKU), and small pools are what make the replica
     * load-balancing policy matter under overload.
     */
    int sparse_worker_threads = 0;
    /**
     * Replica servers behind each sparse shard, resolved via service
     * discovery (Section III-A2: shards are replicated independently
     * based on load; statelessness lets every request land on a
     * different replica combination).
     */
    int sparse_replicas = 1;
    /**
     * Heterogeneous replica counts indexed by shard id; when non-empty it
     * overrides sparse_replicas per shard (entries < 1 fall back to
     * sparse_replicas). This is what lets sched::ProvisionLoop size each
     * shard's replication from its *measured* load instead of replicating
     * every shard identically.
     */
    std::vector<int> sparse_replicas_per_shard;
    /**
     * Replica-selection policy used by the service directory. The
     * load-aware policies read live per-server queue depth from the sim
     * engine (in-flight + queued work on each replica's worker pool).
     */
    rpc::LoadBalancePolicy lb_policy = rpc::LoadBalancePolicy::RoundRobin;
    /** Main-shard admission control (off by default). */
    AdmissionConfig admission;
    /**
     * Main-shard pooled-result cache (off by default): memoizes whole
     * sparse-RPC responses keyed by (net, table group, batch signature)
     * and serves repeats from local memory, skipping serialization,
     * network, remote queueing, and the remote gather entirely. TTL
     * models embedding-refresh staleness; see rpc/result_cache.h.
     */
    rpc::ResultCacheConfig result_cache;
    /**
     * Hedged sparse RPCs (off by default): a backup request to a second
     * replica when the primary exceeds a quantile-tracked deadline, first
     * response wins, loser cancelled (a loser still executing is aborted
     * mid-service; only the busy time it consumed counts as wasted).
     */
    rpc::HedgeConfig hedge;
    /**
     * Replica perturbations: stochastic stragglers (drawn from the
     * per-attempt common-random-numbers identity stream, so paired
     * policy comparisons face the identical interference process) plus
     * the timeout and discovery-lag knobs of the injected-fault
     * layer. Defaults are fully inert.
     */
    PerturbationConfig faults;

    /**
     * Optional measured-locality models (src/cache), indexed by shard id
     * — shards replay their own trace slices, so locality legitimately
     * differs per shard (core::buildShardCacheModels builds them). A
     * singular plan's inline SLS is "shard" 0. With a model set, the
     * shard's per-table gather cost blends the platform-calibrated DRAM
     * cost with the model's miss cost by the table's simulated hit rate,
     * instead of charging the flat lookup_base_ns coefficient for every
     * row. A missing or null entry, and a table the model has no data
     * for, keep the flat cost.
     */
    std::vector<std::shared_ptr<const cache::CachedLookupModel>>
        shard_cache_models;

    std::uint64_t seed = 1234;
    /**
     * Optional request-level span tracer (src/obs). When set and
     * enabled, the serving engine emits a nested span tree per request
     * covering the full lifecycle — admission, queue wait, batch
     * coalescing, dense phases, per-shard RPC attempts (primary and
     * hedge, wire/remote-queue/remote-compute), result-cache probes,
     * and the response merge — in simulated time. The tracer is a pure
     * observer: attaching it never changes RequestStats (enforced
     * byte-for-byte by serving_stress_test). Not owned; must outlive
     * the simulation.
     */
    obs::SpanTracer *tracer = nullptr;
};

/** One deployment of one model under one sharding plan. */
class ServingSimulation
{
  public:
    /**
     * Throws std::invalid_argument, in every build type, with the
     * validator's message when spec.validate() or plan.validate(spec)
     * fails, and naming the field when config breaks a rule:
     * faults.straggler_prob or hedge.quantile outside [0, 1] (or NaN);
     * hedge.max_hedge_fraction, lookup_base_ns or lookup_ns_per_row_byte
     * negative or non-finite;
     * hedge.min_samples above rpc::kHedgeWindow (never met); a negative
     * admission.max_main_queue, admission.deadline_ns,
     * batch_size_override, worker_threads, sparse_worker_threads,
     * sparse_replicas, result_cache.ttl_ns, faults.rpc_timeout_ns or
     * faults.discovery_lag_ns; admission.cancel_in_flight without a
     * deadline (deadline_ns <= 0); main_platform.cores or
     * sparse_platform.cores below 1; a main_platform or sparse_platform
     * cpu_time_scale that is not finite and > 0.
     */
    ServingSimulation(const model::ModelSpec &spec, const ShardingPlan &plan,
                      ServingConfig config);
    ~ServingSimulation();

    ServingSimulation(const ServingSimulation &) = delete;
    ServingSimulation &operator=(const ServingSimulation &) = delete;

    /**
     * Replay requests serially: each is injected when the previous one
     * completes, isolating per-request overheads as in Section VI.
     */
    std::vector<RequestStats>
    replaySerial(const std::vector<workload::Request> &requests);

    /**
     * Replay with open-loop Poisson arrivals at the given rate (the
     * Section VII-A high-QPS experiment). Throws std::invalid_argument
     * unless `qps` is finite and > 0, in every build type. Arrivals are
     * chained under tie-break numbers reserved up front (see
     * sim::Engine::reserveSeq): each one schedules the next when it
     * fires, so the event heap holds only in-flight work, and the
     * dispatch order is the one scheduling every arrival before run()
     * would give.
     *
     * The inter-arrival gaps come from a stream forked off the
     * construction seed alone, so a second replayOpenLoop on the same
     * simulation repeats the first one's gaps (FleetSim's prewarm and
     * measured segments do). Giving each call its own stream changes the
     * fleet fingerprints, so it waits for their next planned re-baseline.
     */
    std::vector<RequestStats>
    replayOpenLoop(const std::vector<workload::Request> &requests,
                   double qps);

    // -- Low-level driver API (src/sched) ---------------------------------
    //
    // An external scheduler (the dynamic batcher) drives the simulation
    // directly: schedule injections on engine(), call engine().run(), and
    // collect each request's stats from its completion callback.

    /** The discrete-event engine: clock + scheduler. */
    sim::Engine &engine();

    /**
     * Inject one request at the current simulated time. `on_complete`
     * (may be null) fires with the request's final stats — including shed
     * requests, whose stats carry the shed reason. The reference is valid
     * only for the call; the callback copies what it keeps. The request
     * object must outlive its completion.
     *
     * `arrival` (>= 0) backdates the request's recorded arrival — the
     * dynamic batcher passes its oldest rider's queue-entry time so that
     * E2E and the admission deadline both see the time spent coalescing,
     * not just the time since injection.
     */
    void inject(const workload::Request &request,
                std::function<void(const RequestStats &)> on_complete,
                sim::SimTime arrival = -1);

    /**
     * Check that a drained engine left nothing behind; throws
     * std::logic_error naming the first invariant that fails: every
     * pooled request, batch and op (with its attempts) is returned; no
     * core is held or queued on the main shard or any replica; every
     * injected request has emitted its stats; an attached tracer has no
     * open span. replaySerial, replayOpenLoop and
     * sched::runBatchedOpenLoop call it once their engine drains.
     */
    void checkDrained() const;

    // -- Observability ------------------------------------------------------

    /**
     * Every load and outcome counter of the deployment at engine().now(),
     * in one value. Built only when called: it schedules no event, draws
     * no random number and changes nothing a replay reads, so a read from
     * an engine() callback mid-replay leaves every RequestStats
     * byte-identical (serving_stress_test checks it).
     */
    ServingMetrics metrics() const;

    /**
     * True when no request waits for a main-shard worker core and one is
     * free, i.e. an injection now starts at once. The queue-aware
     * batcher's live congestion probe; O(1).
     */
    bool mainPoolIdle() const;

    /**
     * metrics().hedge and metrics().result_cache under their old names.
     * They exist only for the fixed bench_e2e harness, which reads them;
     * every other caller reads metrics().
     */
    rpc::HedgeStats hedgeStats() const { return metrics().hedge; }
    rpc::ResultCacheStats resultCacheStats() const
    {
        return metrics().result_cache;
    }

    // -- Runtime control surface --------------------------------------------
    //
    // Mutation hooks that perturb a live deployment, between or during
    // replays. fleet::FaultSchedule drives these per epoch; chaos tests
    // call them directly. Shared contract:
    //
    //  * Callable at any simulated time — before the first replay or
    //    mid-run from an engine() callback; effects are stamped at
    //    engine().now().
    //  * `server_id` indexes replica servers in metrics().servers order
    //    (0 .. servers.size()-1) and `shard_id` plan shards
    //    (0 .. numShards()-1); an id outside its range throws
    //    std::out_of_range, and a degradeReplica() multiplier that is not
    //    finite and > 0 throws std::invalid_argument, in every build type.
    //  * Redundant calls are no-ops: killing a dead replica, restoring a
    //    live one, re-applying an identical degradation or partition
    //    state changes nothing and counts nothing.
    //  * Accounting: compute genuinely burned before a fault lands stays
    //    charged to the requests that issued it; none of it counts as
    //    hedge_wasted_cpu_ns, which only a race's winner adds to. Every
    //    fault consequence is counted in metrics().faults, and requests that
    //    exhaust their failover retries finish shed with
    //    ShedReason::UpstreamFailure.
    //  * Purity: a deployment whose control surface is never exercised
    //    (and whose PerturbationConfig keeps its fault defaults) replays
    //    byte-identically to a build without the fault layer.

    /**
     * Drop every pooled-result entry — the embedding-refresh hook: call
     * at a snapshot boundary and subsequent lookups repopulate from the
     * new embeddings. Also the snapshot-storm fault primitive.
     */
    void invalidateResultCache();

    /**
     * Crash a replica server: it goes dark instantly. Queued work on its
     * worker pool is lost (surfaces as client timeouts), executing work
     * never responds, and new attempts dispatched at it time out — until
     * PerturbationConfig::discovery_lag_ns elapses and the service
     * directory stops resolving to it. Hedging and failover retries are
     * what mask the gap in between.
     */
    void killReplica(int server_id);

    /**
     * Revive a crashed replica with an empty queue. The directory
     * re-includes it after the same discovery lag; work lost during the
     * outage is not replayed.
     */
    void restoreReplica(int server_id);

    /**
     * Persistent slow-node degradation: every remote execution on this
     * replica runs `multiplier` x slower until re-set to 1.0. Unlike the
     * stochastic straggler_prob transients this does NOT re-roll per
     * attempt — it models a bad host (thermal throttling, noisy
     * neighbor, failing DIMM), the case load-balancing policies and
     * hedging must route around consistently.
     */
    void degradeReplica(int server_id, double multiplier);

    /**
     * Sever (or heal) the network path between the main shard and one
     * sparse shard: attempts launched at the shard while partitioned
     * never reach any replica and surface as client timeouts. Replica
     * health and directory state are untouched — the servers are fine,
     * the route is not.
     */
    void partitionShard(int shard_id, bool partitioned);

    /**
     * Read-only stand-in for a per-RPC log this class does not keep:
     * rpcs() is always empty. It exists only for the fixed bench_e2e
     * harness, which reads collector().rpcs().size() into its
     * trace.rpc_records row; nothing else uses it.
     */
    struct RpcLogView
    {
        std::array<char, 0> rpcs() const { return {}; }
    };
    RpcLogView collector() const { return {}; }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace dri::core
