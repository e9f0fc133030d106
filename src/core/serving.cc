#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/lookup_model.h"
#include "netsim/message.h"
#include "obs/span_tracer.h"
#include "rpc/discovery.h"
#include "rpc/service.h"
#include "sim/pool.h"
#include "stats/summary.h"

namespace dri::core {

namespace {

/** Fraction of a net's dense time executed before the sparse join. */
constexpr double kBottomFraction = 0.5;
/**
 * Maximum batches of one request executing CPU phases concurrently
 * (the framework's intra-request worker pool). Asynchronous RPC ops
 * release the slot while waiting — the paper's mechanism for hiding
 * sparse work at scale. Large requests exceed this limit and serialize
 * into waves, which is what makes P99 grow ~linearly with request size.
 */
constexpr int kRequestParallelism = 8;
static_assert(kRequestParallelism >= 1);
/**
 * Failover retries per logical sparse RPC before the whole request
 * fails upstream (ShedReason::UpstreamFailure). Each retry re-pays
 * client dispatch CPU and re-resolves excluding the server that
 * just failed.
 */
constexpr int kMaxAttemptRetries = 2;
/** Remote-execution slowdown of a straggler-interfered attempt. */
constexpr double kStragglerMultiplier = 8.0;

sim::Duration
scaled(double ns, double cpu_scale)
{
    return static_cast<sim::Duration>(std::llround(ns * cpu_scale));
}

sim::Duration
scaled(sim::Duration ns, double cpu_scale)
{
    return scaled(static_cast<double>(ns), cpu_scale);
}

/** Throws std::invalid_argument naming the first field out of range. */
void
validateConfig(const ServingConfig &c)
{
    const auto fail = [](const std::string &rule) {
        throw std::invalid_argument("ServingSimulation: " + rule);
    };
    if (!(c.faults.straggler_prob >= 0.0 && c.faults.straggler_prob <= 1.0))
        fail("faults.straggler_prob must be in [0, 1]");
    if (!(c.hedge.quantile >= 0.0 && c.hedge.quantile <= 1.0))
        fail("hedge.quantile must be in [0, 1]");
    if (c.hedge.min_samples > rpc::kHedgeWindow)
        fail("hedge.min_samples must be <= " +
             std::to_string(rpc::kHedgeWindow) + " (the hedge window)");
    if (!(c.hedge.max_hedge_fraction >= 0.0) ||
        !std::isfinite(c.hedge.max_hedge_fraction))
        fail("hedge.max_hedge_fraction must be finite and >= 0");
    const std::pair<const char *, std::int64_t> non_negative[] = {
        {"admission.max_main_queue", c.admission.max_main_queue},
        {"admission.deadline_ns", c.admission.deadline_ns},
        {"batch_size_override", c.batch_size_override},
        {"worker_threads", c.worker_threads},
        {"sparse_worker_threads", c.sparse_worker_threads},
        {"sparse_replicas", c.sparse_replicas},
        {"result_cache.ttl_ns", c.result_cache.ttl_ns},
        {"faults.rpc_timeout_ns", c.faults.rpc_timeout_ns},
        {"faults.discovery_lag_ns", c.faults.discovery_lag_ns},
    };
    for (const auto &[field, value] : non_negative)
        if (value < 0)
            fail(std::string(field) + " must be >= 0");
    if (c.admission.cancel_in_flight && c.admission.deadline_ns <= 0)
        fail("admission.cancel_in_flight requires deadline_ns > 0");
    const std::pair<const char *, const dc::Platform &> platforms[] = {
        {"main_platform", c.main_platform},
        {"sparse_platform", c.sparse_platform},
    };
    for (const auto &[field, platform] : platforms) {
        if (platform.cores < 1)
            fail(std::string(field) + ".cores must be >= 1");
        if (!(platform.cpu_time_scale > 0.0) ||
            !std::isfinite(platform.cpu_time_scale))
            fail(std::string(field) +
                 ".cpu_time_scale must be finite and > 0");
    }
}

} // namespace

/** Full simulation state; hidden behind the facade. */
struct ServingSimulation::Impl
{
    // -- Static deployment description ------------------------------------

    /** One RPC fan-out target (see fanoutGroups) and its static costs. */
    struct Group : FanoutGroup
    {
        explicit Group(FanoutGroup g) : FanoutGroup(std::move(g)) {}
        double sum_dims = 0.0;  //!< Σ table dims (response sizing)
        double lookup_ns = 0.0; //!< pooled per-row gather cost
    };

    struct NetInfo
    {
        int net_id = 0;
        double dense_ns_per_item = 0.0;
        double dense_fixed_ns = 0.0;
        std::vector<Group> groups;     //!< empty for singular
        double inline_lookup_ns = 0.0; //!< singular per-row gather cost
    };

    // -- Runtime state ------------------------------------------------------

    struct Active; // forward
    struct RpcOp;  // forward

    struct BatchState
    {
        Active *req = nullptr;
        std::size_t net_idx = 0;
        int batch_id = 0;
        std::int64_t batch_items = 0;
        int pending = 0;
        sim::SimTime dispatch_time = 0;
        sim::SimTime last_response = 0;
        std::int64_t response_bytes = 0;
        /** Top-dense duration, stashed for the merge phase. */
        sim::Duration top_dense = 0;
        obs::SpanId sp_batch = obs::kNoSpan; //!< BatchExec span
        obs::SpanId sp_embed = obs::kNoSpan; //!< EmbeddedWait span
        /**
         * The batch's fan-out ops; each holds one reference so the
         * pointers stay valid for mid-flight shed cancellation until
         * drainBatch() releases them.
         */
        std::vector<RpcOp *> ops;
        /** Groups the batch fans out to (indices into the net's groups). */
        std::vector<std::size_t> active;
    };

    /**
     * Timing of one RPC attempt, filled in as it runs: when the client
     * issued it and the Section IV-B split of its remote time. CPU
     * accounting (chargeRemote) and its request's attribution
     * (responseArrive) read it.
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

    /**
     * Where one attempt is in its lifecycle; core/serving.h diagrams the
     * transitions. Pending covers the wire and the replica's queue.
     */
    enum class AttemptState : std::uint8_t
    {
        Pending,
        Executing,
        Done,
        Aborted,
    };

    /**
     * The whole state of one attempt of a (possibly hedged) RPC, kept on
     * the op so the winning attempt can cancel an executing sibling
     * mid-service (tied requests: the servers tell each other when one
     * finishes, so the loser's remaining busy time is reclaimed).
     * launchAttempt keys its counter stream; a failover relaunch starts
     * from a fresh slot.
     */
    struct AttemptExec
    {
        AttemptState state = AttemptState::Pending;
        int server = -1;
        /**
         * Server this (re)launch must avoid — the replica a failover
         * retry just timed out against (-1 = no exclusion).
         */
        int exclude = -1;
        /**
         * Replica::gen snapshot taken when the attempt entered the
         * server's queue; a mismatch at grant or completion means the
         * replica died (or rebooted) underneath it and the work is lost.
         */
        std::uint32_t server_gen = 0;
        sim::SimTime exec_start = 0;
        sim::Duration busy = 0;
        /** An abort refunds in proportion to its busy components. */
        AttemptRecord rec;
        stats::CounterStream stream{0}; //!< CRN draws (see attemptSalt)
        obs::SpanId sp_attempt = obs::kNoSpan; //!< RpcAttempt span
        obs::SpanId sp_exec = obs::kNoSpan;    //!< RemoteCompute span
    };

    /** Whether, and how, an op's race is decided. */
    enum class OpState : std::uint8_t
    {
        Open, //!< no attempt has finished remote service yet
        Won,  //!< an attempt finished remote service and delivers
        Shed, //!< poisoned by a mid-flight shed: no winner
    };

    /**
     * One logical sparse RPC — a fan-out group of one batch — possibly
     * raced by two attempts (primary + hedge). Reference-counted: each
     * in-flight attempt and the pending hedge timer hold one ref; exactly
     * one attempt wins (first to finish remote service) and holds its ref
     * until its response lands, the rest cancel (before, during, or after
     * execution). Once decided, an op stays decided: every attempt still
     * in flight retires without a response.
     */
    struct RpcOp
    {
        /** Dangles once the batch drains, which a loser may outlive. */
        BatchState *bt = nullptr;
        const NetInfo *ni = nullptr;
        std::size_t gi = 0;
        std::uint64_t request_id = 0; //!< span identity, safe for losers
        int batch_id = 0;
        std::int64_t lookups = 0;
        std::int64_t req_bytes = 0;
        sim::SimTime dispatched = 0; //!< primary dispatch (client clock)
        int primary_server = -1;     //!< replica the primary landed on
        OpState state = OpState::Open;
        /** Failover re-dispatches consumed (PerturbationConfig budget). */
        int retries = 0;
        int refs = 0;
        /** Result-cache key this op's winning response is memoized under. */
        rpc::ResultCache::Key cache_key;
        /** Cache epoch at dispatch; a stale epoch blocks the insert. */
        std::uint64_t cache_epoch = 0;
        /** [0] = primary, [1] = hedge. */
        AttemptExec exec[2];
        obs::SpanId sp_op = obs::kNoSpan; //!< RpcOp span

        bool decided() const { return state != OpState::Open; }
        const Group &group() const { return ni->groups[gi]; }
    };

    /** A main-shard request's lifecycle (diagram in core/serving.h). */
    enum class RequestState : std::uint8_t
    {
        Live,      //!< admitted and running; the shed timer may fire
        Finishing, //!< final response serde underway; too late to shed
        Shed,      //!< shed mid-flight: stats out, machinery drains
    };

    struct Active
    {
        workload::Request const *req = nullptr;
        RequestState state = RequestState::Live;
        /** Recycle generation, bumped by releaseActive (shed timer key). */
        std::uint32_t gen = 0;
        RequestStats st;
        int nb = 0;
        std::size_t net_idx = 0;
        int batches_left = 0;
        sim::Duration net_embedded_max = 0;
        /** Per-group request-level lookups for the current net. */
        std::vector<std::int64_t> group_lookups;
        std::int64_t inline_lookups = 0;
        /**
         * Record of this request's bounding (slowest outstanding) RPC
         * attempt and its outstanding time at the main shard (-1 = no
         * response yet); emitStats copies the split into
         * RequestStats::emb_*. Network is measured as the paper does:
         * outstanding time minus the remote E2E, which absorbs clock skew.
         */
        AttemptRecord bounding;
        sim::Duration bounding_outstanding = -1;
        sim::Duration max_inline_sparse = 0;
        std::function<void(const RequestStats &)> on_complete;

        // Intra-request batch-slot pool (framework worker threads).
        int slots_free = 0;
        /**
         * Batches waiting for a slot, FIFO from slot_waiters_head. A
         * vector, not a deque: a deque allocates even when empty, and
         * recycling an Active re-creates this member.
         */
        std::vector<sim::EventFn> slot_waiters;
        std::size_t slot_waiters_head = 0;

        /** Batches with RPC fan-out currently outstanding. */
        std::vector<BatchState *> live_batches;

        obs::SpanId sp_root = obs::kNoSpan; //!< Request span
        obs::SpanId sp_net = obs::kNoSpan;  //!< current NetPhase span
    };

    Impl(const model::ModelSpec &spec, const ShardingPlan &plan,
         const ServingConfig &cfg)
        : spec(spec), plan(plan), cfg(cfg), link(cfg.link), rng(cfg.seed),
          hedge_tracker(rpc::kHedgeWindow, cfg.hedge.quantile),
          result_cache(cfg.result_cache)
    {
        // Cache the tracer pointer once: the hot path pays exactly one
        // null check per emission site when tracing is off.
        tr = (cfg.tracer != nullptr && cfg.tracer->enabled()) ? cfg.tracer
                                                              : nullptr;
        const auto n_shards =
            static_cast<std::size_t>(std::max(plan.numShards(), 0));
        const auto pool = [&](const dc::Platform &platform, int threads) {
            const int t = threads > 0 ? std::min(threads, platform.cores)
                                      : platform.cores;
            return static_cast<std::size_t>(t);
        };
        main_cores = std::make_unique<sim::Resource>(
            engine, pool(cfg.main_platform, cfg.worker_threads));
        const std::size_t sparse_threads = pool(
            cfg.sparse_platform, cfg.sparse_worker_threads > 0
                                     ? cfg.sparse_worker_threads
                                     : cfg.worker_threads);
        const int default_replicas = std::max(1, cfg.sparse_replicas);
        for (int s = 0; s < plan.numShards(); ++s) {
            int count = default_replicas;
            const auto si = static_cast<std::size_t>(s);
            if (si < cfg.sparse_replicas_per_shard.size() &&
                cfg.sparse_replicas_per_shard[si] > 0)
                count = cfg.sparse_replicas_per_shard[si];
            for (int r = 0; r < count; ++r) {
                directory.registerReplica(s,
                                          static_cast<int>(replicas.size()));
                replicas.push_back(
                    {std::make_unique<sim::Resource>(engine, sparse_threads),
                     s});
            }
        }
        shard_partitioned.assign(n_shards, 0);
        directory.setPolicy(cfg.lb_policy, cfg.seed ^ 0x10adbau);
        // Load-aware replica selection reads live queue depth from the
        // worker pools (in-flight + queued), i.e. "outstanding requests".
        directory.setLoadProbe([this](int server) {
            const auto &r = *replicas[static_cast<std::size_t>(server)].cores;
            return r.inUse() + r.queued();
        });
        buildNetInfos();
    }

    const model::ModelSpec &spec;
    const ShardingPlan plan;
    ServingConfig cfg;
    /** Cached span tracer; null when tracing is disabled. */
    obs::SpanTracer *tr = nullptr;

    /**
     * One sparse-shard replica server (see directory). The fault fields
     * stay inert unless the control surface is exercised.
     */
    struct Replica
    {
        std::unique_ptr<sim::Resource> cores;
        int shard = 0;              //!< logical shard it serves
        std::size_t peak_queue = 0; //!< peak in-flight + queued at dispatch
        bool dead = false;          //!< killed and not yet restored
        /**
         * Incarnation, bumped on every kill AND restore: work enqueued
         * under an older generation is lost even if the replica is alive
         * again by the time a core would be granted.
         */
        std::uint32_t gen = 0;
        double degrade = 1.0; //!< degradeReplica slowdown (1.0 = healthy)
    };

    sim::Engine engine;
    std::unique_ptr<sim::Resource> main_cores;
    std::vector<Replica> replicas;
    rpc::ServiceDirectory directory;
    netsim::LinkModel link;
    stats::Rng rng;

    std::vector<NetInfo> nets;
    /** Requests injected and stats emitted; equal once the engine drains. */
    std::uint64_t injected = 0;
    std::uint64_t emitted = 0;

    // -- Hedging state -------------------------------------------------------

    /** Observed client-side RPC latencies; the hedge deadline's source. */
    rpc::LatencyTracker hedge_tracker;
    /**
     * Hedge outcome counters; wasted_busy_ns is the replica busy time
     * losing attempts consumed before the winner aborted them, and
     * total_busy_ns is filled in on read.
     */
    rpc::HedgeStats hedge_stats;

    // -- Pooled-result cache -------------------------------------------------

    rpc::ResultCache result_cache;

    /** Attempts cancelled by mid-flight sheds. */
    std::uint64_t shed_cancelled_rpcs = 0;

    // -- Hot-path object pools ----------------------------------------------
    //
    // Per-request in-flight state recycles through typed arenas instead
    // of the general heap. Raw pointers handed to in-flight events stay
    // valid (stable blocks); the existing ref-count / pending-count
    // protocols are the unique release points, so pooling changes only
    // where the memory comes from.

    /**
     * Not poisoned under ASan: inject's shed timer reads the generation
     * of an Active that may have been recycled since, by design.
     */
    sim::ObjectPool<Active, false> active_pool;
    sim::ObjectPool<BatchState> batch_pool;
    sim::ObjectPool<RpcOp> op_pool;

    /**
     * Recycle an Active: destroy + reconstruct for guaranteed-pristine
     * state, salvaging container capacity so a steady-state request
     * allocates nothing.
     */
    void
    releaseActive(Active *a)
    {
        const std::uint32_t gen = a->gen + 1;
        auto gl = std::move(a->group_lookups);
        auto sop = std::move(a->st.shard_op_ns);
        auto snop = std::move(a->st.shard_net_op_ns);
        auto lb = std::move(a->live_batches);
        auto sw = std::move(a->slot_waiters);
        a->~Active();
        new (a) Active();
        a->gen = gen;
        gl.clear();
        sop.clear();
        snop.clear();
        lb.clear();
        sw.clear();
        a->group_lookups = std::move(gl);
        a->st.shard_op_ns = std::move(sop);
        a->st.shard_net_op_ns = std::move(snop);
        a->live_batches = std::move(lb);
        a->slot_waiters = std::move(sw);
        active_pool.release(a);
    }

    void
    releaseBatch(BatchState *bt)
    {
        auto ops = std::move(bt->ops);
        auto active = std::move(bt->active);
        bt->~BatchState();
        new (bt) BatchState();
        ops.clear();
        active.clear();
        bt->ops = std::move(ops);
        bt->active = std::move(active);
        batch_pool.release(bt);
    }

    void
    releaseOp(RpcOp *op)
    {
        op->~RpcOp();
        new (op) RpcOp();
        op_pool.release(op);
    }

    // -- Injected-fault state (runtime control surface) ----------------------

    /** Shards currently partitioned from the main shard. */
    std::vector<char> shard_partitioned;
    FaultStats fault_stats;

    double
    mainScale() const
    {
        return cfg.main_platform.cpu_time_scale;
    }
    int
    batchSize() const
    {
        return cfg.batch_size_override > 0 ? cfg.batch_size_override
                                           : spec.default_batch_size;
    }

    /**
     * Per-row gather cost for a table served by `shard` (0 for a singular
     * plan's inline SLS). With a cache model configured for the shard,
     * the flat coefficient becomes the DRAM-hit cost and misses pay the
     * model's backing-tier cost, weighted by the table's simulated hit
     * rate.
     */
    double
    tableLookupNs(const model::TableSpec &t, int shard) const
    {
        const double flat =
            cfg.lookup_base_ns +
            cfg.lookup_ns_per_row_byte *
                static_cast<double>(t.storedRowBytes());
        const auto s = static_cast<std::size_t>(shard);
        const cache::CachedLookupModel *model =
            s < cfg.shard_cache_models.size() ? cfg.shard_cache_models[s].get()
                                              : nullptr;
        if (model && model->hasTable(t.id))
            return model->lookupNs(t.id, flat);
        return flat;
    }

    void
    buildNetInfos()
    {
        auto fanout = fanoutGroups(spec, plan);
        for (std::size_t n = 0; n < spec.nets.size(); ++n) {
            const auto &net_spec = spec.nets[n];
            NetInfo ni;
            ni.net_id = net_spec.id;
            ni.dense_ns_per_item = net_spec.dense_ns_per_item;
            ni.dense_fixed_ns = net_spec.dense_fixed_ns;

            if (plan.isSingular()) {
                // Pooling-weighted gather cost across the net's tables,
                // all served inline ("shard" 0).
                double pool_sum = 0.0, cost_sum = 0.0;
                for (const auto &t : spec.tables) {
                    if (t.net_id != net_spec.id)
                        continue;
                    const double pool = t.expectedLookups(spec.mean_items);
                    pool_sum += pool;
                    cost_sum += pool * tableLookupNs(t, 0);
                }
                ni.inline_lookup_ns = pool_sum > 0.0 ? cost_sum / pool_sum
                                                     : cfg.lookup_base_ns;
            }
            for (auto &fg : fanout[n]) {
                Group g(std::move(fg));
                double pool = 0.0, cost = 0.0;
                // A piece of a `ways`-way split serves 1/ways of its
                // table's lookups; a whole table is a 1-way piece.
                const auto add = [&](int tid, double ways) {
                    const auto &t = spec.tables[static_cast<std::size_t>(tid)];
                    const double p = t.expectedLookups(spec.mean_items) / ways;
                    pool += p;
                    cost += p * tableLookupNs(t, g.shard);
                    g.sum_dims += static_cast<double>(t.dim);
                };
                for (int tid : g.whole_tables)
                    add(tid, 1.0);
                for (const auto &piece : g.pieces)
                    add(piece.table, static_cast<double>(piece.ways));
                g.lookup_ns = pool > 0.0 ? cost / pool : cfg.lookup_base_ns;
                ni.groups.push_back(std::move(g));
            }
            nets.push_back(std::move(ni));
        }
    }

    // -- Helpers -------------------------------------------------------------

    /** Split a request-level lookup count across batches. */
    std::int64_t
    batchShare(std::int64_t total, int nb, int b) const
    {
        const std::int64_t base = total / nb;
        const std::int64_t rem = total % nb;
        return base + (b < rem ? 1 : 0);
    }

    /** Grant an intra-request batch slot (FIFO). */
    void
    acquireSlot(Active *a, sim::EventFn fn)
    {
        if (a->slots_free > 0) {
            --a->slots_free;
            fn();
        } else {
            a->slot_waiters.push_back(std::move(fn));
        }
    }

    void
    releaseSlot(Active *a)
    {
        if (a->slot_waiters_head < a->slot_waiters.size()) {
            auto next = std::move(a->slot_waiters[a->slot_waiters_head++]);
            if (a->slot_waiters_head == a->slot_waiters.size()) {
                a->slot_waiters.clear();
                a->slot_waiters_head = 0;
            }
            engine.schedule(0, sim::kEvGrant, std::move(next));
        } else {
            ++a->slots_free;
        }
    }

    /** Request-level lookups routed to each group of the net. */
    void
    computeNetLookups(Active *a, const NetInfo &ni)
    {
        a->group_lookups.assign(ni.groups.size(), 0);
        a->inline_lookups = 0;
        const auto &lk = a->req->table_lookups;
        if (ni.groups.empty()) {
            for (const auto &t : spec.tables)
                if (t.net_id == ni.net_id)
                    a->inline_lookups +=
                        lk[static_cast<std::size_t>(t.id)];
            return;
        }
        for (std::size_t gi = 0; gi < ni.groups.size(); ++gi) {
            const Group &g = ni.groups[gi];
            std::int64_t total = 0;
            for (int tid : g.whole_tables)
                total += lk[static_cast<std::size_t>(tid)];
            for (const auto &piece : g.pieces) {
                const std::int64_t n =
                    lk[static_cast<std::size_t>(piece.table)];
                const std::int64_t base = n / piece.ways;
                const std::int64_t rem = n % piece.ways;
                // Rotate the remainder by request id so a pooling-factor-1
                // table touches exactly one (rotating) piece per request.
                const auto offset = static_cast<int>(
                    (piece.piece + piece.ways -
                     static_cast<int>(a->req->id %
                                      static_cast<std::uint64_t>(
                                          piece.ways))) %
                    piece.ways);
                total += base + (offset < rem ? 1 : 0);
            }
            a->group_lookups[gi] = total;
        }
    }

    // -- Request lifecycle ----------------------------------------------------

    /**
     * The one exit of a request's stats, served (`reason` None) or shed:
     * close the root span, stamp completion and e2e, hand the stats to
     * on_complete by reference, then recycle the Active, unless it was
     * shed mid-flight: then its batches still drain and the last one
     * recycles it.
     */
    void
    emitStats(Active *a, ShedReason reason)
    {
        ++emitted;
        RequestStats &st = a->st;
        st.shed_reason = reason;
        // A served root carries the hedge-win flag so the sampler's flag
        // trigger can keep hedge-win traces.
        if (tr)
            tr->end(a->sp_root, engine.now(),
                    st.shed()             ? obs::kFlagShed
                    : st.hedge_wins > 0 ? obs::kFlagHedge
                                        : obs::kFlagNone);
        st.completion = engine.now();
        st.e2e = st.completion - st.arrival;
        if (!st.shed()) {
            const sim::Duration accounted = st.queue_wait + st.lat_serde +
                                            st.lat_service +
                                            st.lat_net_overhead +
                                            st.lat_embedded;
            st.lat_dense = std::max<sim::Duration>(0, st.e2e - accounted);
            if (a->bounding_outstanding >= 0) {
                const AttemptRecord &b = a->bounding;
                st.emb_sparse_op = b.sparse_op;
                st.emb_serde = b.serde;
                st.emb_service = b.service;
                st.emb_net_overhead = b.net_overhead;
                st.emb_network = a->bounding_outstanding - b.remote();
                st.emb_queue = b.queue;
            } else {
                st.emb_sparse_op = a->max_inline_sparse;
            }
        }
        if (a->on_complete)
            a->on_complete(st);
        if (a->state != RequestState::Shed)
            releaseActive(a);
    }

    /**
     * Retire a finished or abandoned batch — drop its ops' references,
     * unregister it — and let its request go on.
     */
    void
    drainBatch(BatchState *bt)
    {
        Active *a = bt->req;
        if (tr) {
            // Shed drains reach here with the wait/exec spans still
            // open; close them as cancelled debris.
            tr->end(bt->sp_embed, engine.now(), obs::kFlagCancelled);
            tr->end(bt->sp_batch, engine.now(), obs::kFlagCancelled);
        }
        for (RpcOp *op : bt->ops)
            derefOp(op);
        auto &lb = a->live_batches;
        lb.erase(std::remove(lb.begin(), lb.end(), bt), lb.end());
        releaseBatch(bt);
        releaseSlot(a);
        batchDone(a);
    }

    /**
     * Record a batch's main-shard phases as back-to-back spans under
     * `parent`, the first starting now. Call only with tracing on.
     */
    void
    recordPhases(
        const Active *a, obs::SpanId parent, int net_id, int b,
        std::initializer_list<std::pair<obs::SpanKind, sim::Duration>> phases)
    {
        sim::SimTime t = engine.now();
        for (const auto &[kind, d] : phases) {
            tr->record(a->st.id, kind, parent, t, t + d, obs::kMainShard,
                       net_id, b);
            t += d;
        }
    }

    /**
     * Shed an executing request — deadline blown (cancel_in_flight) or
     * upstream failure (fault layer): cancel every
     * outstanding sparse RPC — queued attempts release their slots at
     * grant, on-wire attempts die on arrival, executing attempts abort
     * now with their unexecuted charges refunded — THEN emit the shed
     * stats, then retire the fully-cancelled batches. The remaining
     * main-shard machinery (dense phases already on cores, queued batch
     * grants) drains through shed guards that charge no new work; the
     * Active is deleted once its last batch drains.
     */
    void
    shedMidFlight(Active *a, ShedReason reason)
    {
        advance(a, RequestState::Shed);

        // 1. Cancel outstanding fan-out and settle accounting. Batch
        // retirement waits until after stats emission because the last
        // batchDone may delete the Active.
        std::vector<BatchState *> drained; // nothing left in flight
        for (BatchState *bt : a->live_batches) {
            for (RpcOp *op : bt->ops) {
                if (op->decided())
                    continue; // response delivered or in flight
                op->state = OpState::Shed; // remaining attempts retire
                if (tr)
                    tr->end(op->sp_op, engine.now(), obs::kFlagCancelled);
                ++shed_cancelled_rpcs;
                if (--bt->pending == 0)
                    drained.push_back(bt);
                for (int i = 0; i < 2; ++i) {
                    if (op->exec[i].state != AttemptState::Executing)
                        continue;
                    // A shed abort is not a hedge outcome: the backup
                    // counts cancelled, and nothing counts as wasted.
                    abortExecuting(op, i, obs::kFlagCancelled);
                    if (i == 1)
                        ++hedge_stats.cancelled;
                }
            }
        }

        // 2. Emit the settled stats. The root span closes here, at the
        // moment the client gives up; the remaining machinery drains as
        // cancelled debris spans that may outlive it.
        emitStats(a, reason);

        // 3. Retire the batches the cancellation emptied.
        for (BatchState *bt : drained)
            drainBatch(bt);
    }

    // -- Injected-fault machinery (runtime control surface) ------------------

    /**
     * Propagate a health transition to the service directory after the
     * configured discovery lag. Stale updates are dropped: if the
     * replica's liveness changed again within the lag (kill -> restore),
     * the earlier timer must not flap the directory backwards — the
     * later timer carries the current truth.
     */
    void
    scheduleHealthUpdate(int server, bool healthy)
    {
        const auto apply = [this, server, healthy] {
            if (replicas[static_cast<std::size_t>(server)].dead == !healthy)
                directory.setServerHealth(server, healthy);
        };
        const sim::Duration lag = cfg.faults.discovery_lag_ns;
        if (lag <= 0)
            apply();
        else
            engine.schedule(lag, sim::kEvTimer, apply);
    }

    /** The replica with server id `server`; throws std::out_of_range. */
    Replica &
    replicaAt(int server, const char *what)
    {
        if (server < 0 ||
            static_cast<std::size_t>(server) >= replicas.size())
            throw std::out_of_range(std::string(what) + ": server id " +
                                    std::to_string(server) +
                                    " out of range");
        return replicas[static_cast<std::size_t>(server)];
    }

    /**
     * killReplica (dead) and restoreReplica. Either transition bumps the
     * replica's generation: a kill dooms its queued and executing work,
     * and outage-era work stays lost after a revival.
     */
    void
    setReplicaDead(int server, bool dead, const char *what)
    {
        Replica &r = replicaAt(server, what);
        if (r.dead == dead)
            return;
        r.dead = dead;
        ++r.gen;
        ++(dead ? fault_stats.kills : fault_stats.restores);
        scheduleHealthUpdate(server, !dead);
    }

    /**
     * An attempt's target turned out unreachable (dead replica,
     * partition, lost in a crash, or unresolvable shard) and its RPC
     * timeout — or immediate resolution error — has surfaced to the
     * client. Consumes the attempt's op reference: either the failover
     * retry relaunches under the same reference, or the request fails
     * upstream and the reference drops.
     */
    void
    attemptFailed(RpcOp *op, int idx)
    {
        const std::uint8_t failed = obs::kFlagCancelled | obs::kFlagFault;
        if (op->decided()) {
            // Race decided while the timeout ran (sibling answered, or
            // the request was shed): this is just debris to drop.
            retireAttempt(op, idx, loseFlags(op) | obs::kFlagFault);
            return;
        }
        if (idx == 1) {
            // A failed hedge never escalates: the primary (and its
            // retries) still own the op; the backup just dissolves.
            retireAttempt(op, idx, failed);
            return;
        }
        if (op->retries >= kMaxAttemptRetries) {
            // Terminal upstream failure: the whole request is shed
            // through the mid-flight drain (outstanding attempts cancel,
            // queued grants drain, charges settle). An open op means the
            // request is still Live, which shedMidFlight checks.
            Active *a = op->bt->req;
            retireAttempt(op, idx, failed);
            ++fault_stats.upstream_failures;
            shedMidFlight(a, ShedReason::UpstreamFailure);
            return;
        }
        AttemptExec &ex = op->exec[0];
        if (tr)
            tr->end(ex.sp_attempt, engine.now(), failed);
        ++op->retries;
        ++fault_stats.retries;
        // Failover re-dispatch: the serialized payload is reused (no
        // second serde charge, like a hedge), but dispatch CPU is paid
        // again and resolution avoids the failed server.
        op->bt->req->st.cpu_service_ns += static_cast<double>(
            scaled(rpc::kClientDispatchNs, mainScale()));
        const int failed_server = ex.server;
        ex = AttemptExec{}; // fresh slot for the relaunch
        ex.exclude = failed_server;
        launchAttempt(op, 0); // inherits this attempt's op reference
    }

    void
    inject(const workload::Request &req,
           std::function<void(const RequestStats &)> on_complete,
           sim::SimTime arrival = -1)
    {
        ++injected;
        Active *a = active_pool.acquire();
        a->req = &req;
        a->st.id = req.id;
        a->st.items = req.items;
        a->nb = static_cast<int>(
            (req.items + batchSize() - 1) / batchSize());
        a->st.batches = a->nb;
        a->st.shard_op_ns.assign(
            static_cast<std::size_t>(std::max(plan.numShards(), 1)), 0.0);
        a->st.shard_net_op_ns.assign(
            static_cast<std::size_t>(std::max(plan.numShards(), 1)) *
                spec.nets.size(),
            0.0);
        a->on_complete = std::move(on_complete);
        a->slots_free = kRequestParallelism;
        a->st.arrival = arrival >= 0 ? arrival : engine.now();

        if (tr) {
            a->sp_root = tr->begin(a->st.id, obs::SpanKind::Request,
                                   obs::kNoSpan, a->st.arrival);
            // A backdated arrival means the dynamic batcher held the
            // request while coalescing riders.
            if (a->st.arrival < engine.now())
                tr->record(a->st.id, obs::SpanKind::BatchCoalesce,
                           a->sp_root, a->st.arrival, engine.now());
        }

        // Admission control: cap the main-shard wait queue at arrival.
        if (cfg.admission.max_main_queue > 0 &&
            main_cores->queued() >=
                static_cast<std::size_t>(cfg.admission.max_main_queue)) {
            emitStats(a, ShedReason::QueueFull);
            return;
        }

        // Mid-flight deadline enforcement: arm a timer that sheds the
        // request and cancels its outstanding sparse RPCs if it is still
        // executing when its deadline passes.
        if (cfg.admission.cancel_in_flight) {
            const sim::Duration delay = std::max<sim::Duration>(
                0,
                a->st.arrival + cfg.admission.deadline_ns - engine.now());
            const std::uint32_t gen = a->gen;
            engine.schedule(delay, sim::kEvTimer, [this, a, gen] {
                // A changed generation means the request completed and
                // its Active was recycled (pool memory stays valid). Once
                // the final response serde is underway, let it complete.
                if (a->gen == gen && a->state == RequestState::Live)
                    shedMidFlight(a, ShedReason::DeadlineExceeded);
            });
        }

        const sim::SimTime q0 = engine.now();
        main_cores->acquire([this, a, q0] {
            // Shed by the mid-flight timer while queued: stats are out,
            // nothing started, so the Active just evaporates.
            if (a->state == RequestState::Shed) {
                main_cores->release();
                releaseActive(a);
                return;
            }
            a->st.queue_wait += engine.now() - q0;
            // Deadline-aware shedding: don't burn a worker core on a
            // request whose deadline already passed while it queued.
            if (cfg.admission.deadline_ns > 0 &&
                engine.now() - a->st.arrival > cfg.admission.deadline_ns) {
                main_cores->release();
                emitStats(a, ShedReason::DeadlineExceeded);
                return;
            }
            const sim::Duration handler =
                scaled(rpc::kHandlerFixedNs / 2, mainScale());
            const std::int64_t req_bytes = netsim::rankingRequestBytes(
                spec.request_bytes_per_item, a->req->items,
                a->req->totalLookups());
            const sim::Duration deserde =
                scaled(rpc::serdeNs(req_bytes), mainScale());
            a->st.lat_service += handler;
            a->st.cpu_service_ns += static_cast<double>(handler);
            a->st.lat_serde += deserde;
            a->st.cpu_serde_ns += static_cast<double>(deserde);
            if (tr) {
                if (engine.now() > q0)
                    tr->record(a->st.id, obs::SpanKind::QueueWait,
                               a->sp_root, q0, engine.now());
                tr->record(a->st.id, obs::SpanKind::Deserialize, a->sp_root,
                           engine.now(), engine.now() + handler + deserde);
            }
            engine.schedule(handler + deserde, sim::kEvMainCompute, [this, a] {
                main_cores->release();
                if (a->state == RequestState::Shed) {
                    // Shed during request deserde; nothing queued.
                    releaseActive(a);
                    return;
                }
                startNet(a);
            });
        });
    }

    void
    startNet(Active *a)
    {
        if (a->net_idx >= nets.size()) {
            finishRequest(a);
            return;
        }
        const NetInfo &ni = nets[a->net_idx];
        computeNetLookups(a, ni);
        a->net_embedded_max = 0;
        a->batches_left = a->nb;
        if (tr)
            a->sp_net =
                tr->begin(a->st.id, obs::SpanKind::NetPhase, a->sp_root,
                          engine.now(), obs::kMainShard, ni.net_id);
        // Framework scheduling cost appears once on the net's critical
        // path (batches pay it in parallel).
        a->st.lat_net_overhead += scaled(
            rpc::netOverheadNs(static_cast<std::int64_t>(ni.groups.size())),
            mainScale());
        for (int b = 0; b < a->nb; ++b)
            acquireSlot(a, [this, a, b] { startBatch(a, b); });
    }

    void
    startBatch(Active *a, int b)
    {
        if (a->state == RequestState::Shed) {
            // Slot granted after the shed: the batch never starts.
            releaseSlot(a);
            batchDone(a);
            return;
        }
        const sim::SimTime q0 = engine.now();
        obs::SpanId sp_batch = obs::kNoSpan;
        if (tr)
            sp_batch = tr->begin(a->st.id, obs::SpanKind::BatchExec,
                                 a->sp_net, q0, obs::kMainShard,
                                 nets[a->net_idx].net_id, b);
        main_cores->acquire([this, a, b, q0, sp_batch] {
            if (a->state == RequestState::Shed) {
                if (tr)
                    tr->end(sp_batch, engine.now(), obs::kFlagCancelled);
                main_cores->release();
                releaseSlot(a);
                batchDone(a);
                return;
            }
            // The net cannot advance while this batch is outstanding.
            const NetInfo &ni = nets[a->net_idx];
            if (tr && engine.now() > q0)
                tr->record(a->st.id, obs::SpanKind::QueueWait, sp_batch, q0,
                           engine.now(), obs::kMainShard, ni.net_id, b);
            const std::int64_t bitems = batchShare(a->req->items, a->nb, b);
            const double dense_total =
                ni.dense_ns_per_item * static_cast<double>(bitems) +
                ni.dense_fixed_ns;
            const sim::Duration overhead = scaled(
                rpc::netOverheadNs(
                    static_cast<std::int64_t>(ni.groups.size())),
                mainScale());
            const sim::Duration bottom =
                scaled(dense_total * kBottomFraction, mainScale());
            const sim::Duration top =
                scaled(dense_total * (1.0 - kBottomFraction),
                       mainScale());
            a->st.cpu_service_ns += static_cast<double>(overhead);
            a->st.cpu_ops_ns += static_cast<double>(bottom + top);
            a->st.main_op_ns += static_cast<double>(bottom + top);

            if (ni.groups.empty()) {
                // Singular: SLS runs inline inside the batch.
                const std::int64_t lk =
                    batchShare(a->inline_lookups, a->nb, b);
                const sim::Duration sparse =
                    scaled(static_cast<double>(lk) * ni.inline_lookup_ns,
                           mainScale());
                a->st.cpu_ops_ns += static_cast<double>(sparse);
                a->st.main_op_ns += static_cast<double>(sparse);
                if (tr)
                    recordPhases(
                        a, sp_batch, ni.net_id, b,
                        {{obs::SpanKind::DenseBottom, overhead + bottom},
                         {obs::SpanKind::InlineSparse, sparse},
                         {obs::SpanKind::DenseTop, top}});
                runLocalBatch(a, sp_batch, overhead + bottom + sparse + top,
                              sparse);
                return;
            }

            // Distributed: serialize one request per group with work this
            // batch, then release the core while the RPCs are outstanding.
            // Groups with zero lookups are skipped entirely — DRM3's
            // row-split dominant table touches one piece per request, so
            // only ~2 shards are accessed regardless of shard count.
            BatchState *bt = batch_pool.acquire();
            bt->req = a;
            bt->net_idx = a->net_idx;
            bt->batch_id = b;
            bt->batch_items = bitems;
            bt->top_dense = top;
            bt->sp_batch = sp_batch;
            sim::Duration send_cpu = 0;
            for (std::size_t gi = 0; gi < ni.groups.size(); ++gi) {
                const Group &g = ni.groups[gi];
                const std::int64_t lk =
                    batchShare(a->group_lookups[gi], a->nb, b);
                if (lk == 0)
                    continue;
                // Pooled-result cache: a fresh memoized response for this
                // (net, group, batch shape) short-circuits the whole RPC —
                // no serde, no wire, no remote queue, no remote gather.
                if (result_cache.enabled()) {
                    const rpc::ResultCache::Key key{
                        ni.net_id, static_cast<int>(gi),
                        rpc::resultSignature(bitems, lk,
                                             a->req->content_hash, b)};
                    const bool hit = result_cache.lookup(key, engine.now());
                    if (tr)
                        tr->record(a->st.id, obs::SpanKind::ResultCacheProbe,
                                   sp_batch, engine.now(), engine.now(),
                                   g.shard, ni.net_id, b,
                                   hit ? obs::kFlagCacheHit : obs::kFlagNone);
                    if (hit) {
                        ++a->st.result_cache_hits;
                        a->st.result_cache_bytes_saved +=
                            netsim::sparseResponseBytes(
                                static_cast<std::int64_t>(g.sum_dims),
                                bitems);
                        continue;
                    }
                    ++a->st.result_cache_misses;
                }
                bt->active.push_back(gi);
                const std::int64_t bytes = netsim::sparseRequestBytes(
                    lk, g.tableCount(), bitems);
                send_cpu += scaled(rpc::serdeNs(bytes), mainScale()) +
                            scaled(rpc::kClientDispatchNs, mainScale());
            }
            if (bt->active.empty()) {
                // No sparse work anywhere this batch (or every group hit
                // the result cache): pure dense path.
                releaseBatch(bt);
                if (tr)
                    recordPhases(
                        a, sp_batch, ni.net_id, b,
                        {{obs::SpanKind::DenseBottom, overhead + bottom},
                         {obs::SpanKind::DenseTop, top}});
                runLocalBatch(a, sp_batch, overhead + bottom + top, 0);
                return;
            }
            if (tr)
                recordPhases(a, sp_batch, ni.net_id, b,
                             {{obs::SpanKind::DenseBottom, overhead + bottom},
                              {obs::SpanKind::ClientSerde, send_cpu}});
            engine.schedule(overhead + bottom + send_cpu, sim::kEvMainCompute,
                            [this, bt] { dispatchBatch(bt); });
        });
    }

    /**
     * Run a batch with no RPC to wait for — inline SLS (singular), or
     * every group skipped or served from the result cache — on its held
     * core for `busy`. `sparse` is its inline SLS time.
     */
    void
    runLocalBatch(Active *a, obs::SpanId sp_batch, sim::Duration busy,
                  sim::Duration sparse)
    {
        engine.schedule(busy, sim::kEvMainCompute, [this, a, sp_batch, sparse] {
            main_cores->release();
            releaseSlot(a);
            const bool shed = a->state == RequestState::Shed;
            if (tr)
                tr->end(sp_batch, engine.now(),
                        shed ? obs::kFlagCancelled : obs::kFlagNone);
            if (!shed) {
                a->net_embedded_max = std::max(a->net_embedded_max, sparse);
                a->max_inline_sparse = std::max(a->max_inline_sparse, sparse);
            }
            batchDone(a);
        });
    }

    /** End of a distributed batch's dense phase: send its fan-out. */
    void
    dispatchBatch(BatchState *bt)
    {
        Active *a = bt->req;
        if (a->state == RequestState::Shed) {
            // Shed during the dense phase: the fan-out is never
            // dispatched. The batch holds no ops and is not yet live, so
            // retiring it just closes its span as cancelled.
            main_cores->release();
            drainBatch(bt);
            return;
        }
        const NetInfo &ni = nets[bt->net_idx];
        bt->pending = static_cast<int>(bt->active.size());
        bt->dispatch_time = engine.now();
        if (tr)
            bt->sp_embed = tr->begin(a->st.id, obs::SpanKind::EmbeddedWait,
                                     bt->sp_batch, engine.now(),
                                     obs::kMainShard, ni.net_id,
                                     bt->batch_id);
        a->live_batches.push_back(bt);
        for (const std::size_t gi : bt->active)
            sendRpc(bt, ni, gi);
        // The async RPC ops release the worker CORE (other requests may
        // use it) but the batch's net execution blocks on the wait op, so
        // the intra-request slot is held until the batch completes
        // (Fig. 3 semantics).
        main_cores->release();
    }

    void
    derefOp(RpcOp *op)
    {
        if (--op->refs == 0)
            releaseOp(op);
    }

    /**
     * Span flags for an attempt self-cancelling after its op was
     * decided: a race decision makes it a loser; a shed poisons the op
     * with no winner, so the attempt is merely cancelled.
     */
    static std::uint8_t
    loseFlags(const RpcOp *op)
    {
        return op->state == OpState::Shed
                   ? static_cast<std::uint8_t>(obs::kFlagCancelled)
                   : static_cast<std::uint8_t>(obs::kFlagCancelled |
                                               obs::kFlagLoser);
    }

    /**
     * The one place an attempt changes state: Pending -> Executing ->
     * Done | Aborted. A failover relaunch starts over from a fresh
     * AttemptExec instead. Throws std::logic_error on any other move.
     */
    static void
    advance(AttemptExec &ex, AttemptState to)
    {
        if (ex.state != (to == AttemptState::Executing
                             ? AttemptState::Pending
                             : AttemptState::Executing))
            throw std::logic_error("serving: illegal attempt transition");
        ex.state = to;
    }

    /** The one place a request leaves Live; throws if it already has. */
    static void
    advance(Active *a, RequestState to)
    {
        if (a->state != RequestState::Live)
            throw std::logic_error("serving: illegal request transition");
        a->state = to;
    }

    /**
     * Add `w` times an attempt's remote busy components to its request's
     * cpu_* and per-shard op buckets: w = 1 charges an execution, and
     * w = -f refunds the unexecuted fraction f of an aborted one, so an
     * abort reverses exactly the buckets the execution charged.
     */
    void
    chargeRemote(const RpcOp *op, const AttemptRecord &rec, double w)
    {
        RequestStats &st = op->bt->req->st;
        const auto sidx = static_cast<std::size_t>(op->group().shard);
        const double op_ns = w * static_cast<double>(rec.sparse_op);
        st.cpu_service_ns +=
            w * static_cast<double>(rec.service + rec.net_overhead);
        st.cpu_serde_ns += w * static_cast<double>(rec.serde);
        st.cpu_ops_ns += op_ns;
        st.shard_op_ns[sidx] += op_ns;
        st.shard_net_op_ns[sidx * spec.nets.size() + op->bt->net_idx] +=
            op_ns;
    }

    /**
     * The one exit of an attempt that gives up without executing: close
     * its span with `flags`, count a backup cancelled and drop its op
     * reference. Touches no batch or request state: a retiring attempt
     * of a decided op may outlive both.
     */
    void
    retireAttempt(RpcOp *op, int idx, std::uint8_t flags)
    {
        if (tr)
            tr->end(op->exec[idx].sp_attempt, engine.now(), flags);
        if (idx == 1)
            ++hedge_stats.cancelled;
        derefOp(op);
    }

    /**
     * Stop an executing attempt mid-service: close its spans with
     * `span_flags`, refund the unexecuted fraction of its charges (only
     * the consumed part was real work), and free its core. The
     * hedge-race cancellation (cancelSibling) and the mid-flight shed
     * (shedMidFlight) share it; each counts its own hedge outcome.
     * Returns the busy time consumed before the abort.
     */
    sim::Duration
    abortExecuting(RpcOp *op, int idx, std::uint8_t span_flags)
    {
        AttemptExec &ex = op->exec[idx];
        advance(ex, AttemptState::Aborted);
        if (tr) {
            tr->end(ex.sp_exec, engine.now(), span_flags);
            tr->end(ex.sp_attempt, engine.now(), span_flags);
        }
        const sim::Duration consumed = engine.now() - ex.exec_start;
        const double f = ex.busy > 0
                             ? static_cast<double>(ex.busy - consumed) /
                                   static_cast<double>(ex.busy)
                             : 0.0;
        chargeRemote(op, ex.rec, -f);
        replicas[static_cast<std::size_t>(ex.server)].cores->release();
        return consumed;
    }

    /** Send the primary attempt of group `gi`. */
    void
    sendRpc(BatchState *bt, const NetInfo &ni, std::size_t gi)
    {
        Active *a = bt->req;
        const Group &g = ni.groups[gi];
        const std::int64_t lk =
            batchShare(a->group_lookups[gi], a->nb, bt->batch_id);
        const std::int64_t req_bytes =
            netsim::sparseRequestBytes(lk, g.tableCount(), bt->batch_items);
        // Client-side serde/dispatch CPU was spent in startBatch; account it.
        a->st.cpu_serde_ns += rpc::serdeNs(req_bytes) * mainScale();
        a->st.cpu_service_ns += static_cast<double>(scaled(
            rpc::kClientDispatchNs, mainScale()));
        ++a->st.rpc_count;
        ++hedge_stats.primary_rpcs;

        RpcOp *op = op_pool.acquire();
        op->bt = bt;
        op->ni = &ni;
        op->gi = gi;
        op->request_id = a->st.id;
        op->batch_id = bt->batch_id;
        op->lookups = lk;
        op->req_bytes = req_bytes;
        op->dispatched = engine.now();
        op->cache_key = rpc::ResultCache::Key{
            ni.net_id, static_cast<int>(gi),
            rpc::resultSignature(bt->batch_items, lk,
                                 a->req->content_hash, bt->batch_id)};
        op->cache_epoch = result_cache.epoch();
        op->refs = 2; // the primary attempt + the batch's ops registry
        if (tr)
            op->sp_op = tr->begin(a->st.id, obs::SpanKind::RpcOp,
                                  bt->sp_embed, engine.now(), g.shard,
                                  ni.net_id, bt->batch_id);
        bt->ops.push_back(op);
        launchAttempt(op, 0);
        maybeScheduleHedge(op);
    }

    /**
     * Arm the hedge timer at dispatch: if the primary is still unresolved
     * when the quantile-tracked deadline passes, race a backup against it
     * on a different replica. The deadline is frozen at dispatch time (the
     * tail-at-scale formulation); the budget is rechecked at fire time so
     * bursts cannot overshoot the cap.
     */
    void
    maybeScheduleHedge(RpcOp *op)
    {
        const rpc::HedgeConfig &hc = cfg.hedge;
        if (!hc.enabled)
            return;
        if (directory.replicaCount(op->group().shard) < 2)
            return;
        if (hedge_tracker.count() < std::max<std::size_t>(1, hc.min_samples))
            return;
        const sim::Duration deadline = hedge_tracker.value();
        ++op->refs; // the timer (held across re-arms)
        engine.schedule(deadline, sim::kEvTimer,
                        [this, op, deadline] { hedgeTimerFired(op, deadline); });
    }

    void
    hedgeTimerFired(RpcOp *op, sim::Duration deadline)
    {
        if (op->decided()) {
            derefOp(op);
            return;
        }
        // Primary still on the wire (its one-way delay exceeded the
        // deadline — exactly the big-payload outliers hedging is for):
        // re-arm rather than silently dropping the hedge. The wire delay
        // is finite, so this terminates.
        if (op->primary_server < 0) {
            engine.schedule(deadline, sim::kEvTimer, [this, op, deadline] {
                hedgeTimerFired(op, deadline);
            });
            return;
        }
        // Hedge only if budget remains; count the skip otherwise so
        // under-hedging is visible in the stats.
        const bool within_budget =
            static_cast<double>(hedge_stats.hedges + 1) <=
            cfg.hedge.max_hedge_fraction *
                static_cast<double>(hedge_stats.primary_rpcs);
        if (within_budget) {
            ++hedge_stats.hedges;
            Active *a = op->bt->req;
            ++a->st.hedges;
            // Backup dispatch CPU; the serialized payload is reused,
            // so no second serde charge.
            a->st.cpu_service_ns += static_cast<double>(
                scaled(rpc::kClientDispatchNs, mainScale()));
            ++op->refs; // the backup attempt
            launchAttempt(op, 1);
        } else {
            ++hedge_stats.suppressed;
        }
        derefOp(op);
    }

    /**
     * Put attempt `idx` (0 = primary, 1 = hedge) on the wire from its
     * pristine slot, keying its counter stream by the attempt's identity.
     */
    void
    launchAttempt(RpcOp *op, int idx)
    {
        const Group &g = op->group();
        const int net_id = op->ni->net_id;
        AttemptExec &ex = op->exec[idx];
        if (tr) {
            ex.sp_attempt = tr->begin(
                op->request_id, obs::SpanKind::RpcAttempt, op->sp_op,
                engine.now(), g.shard, net_id, op->batch_id,
                idx == 1 ? obs::kFlagHedge : obs::kFlagNone);
        }
        ex.stream = stats::CounterStream(
            rng.forkSeed(attemptSalt(op->request_id, net_id, op->batch_id,
                                     op->gi, idx == 1, op->retries)));

        // Main<->shard partition: the payload never reaches the shard;
        // the client's RPC timeout is the only failure signal.
        if (shard_partitioned[static_cast<std::size_t>(g.shard)]) {
            ++fault_stats.partition_drops;
            engine.schedule(cfg.faults.rpc_timeout_ns, sim::kEvTimer,
                            [this, op, idx] { attemptFailed(op, idx); });
            return;
        }

        ex.rec.dispatched = engine.now();
        const sim::Duration out_delay =
            link.oneWayDelay(op->req_bytes, ex.stream);
        if (tr)
            tr->record(op->request_id, obs::SpanKind::WireOut, ex.sp_attempt,
                       engine.now(), engine.now() + out_delay, g.shard,
                       net_id, op->batch_id);
        engine.schedule(out_delay, sim::kEvWire,
                        [this, op, idx] { attemptArrive(op, idx); });
    }

    /** The attempt reached its shard: resolve a replica and queue there. */
    void
    attemptArrive(RpcOp *op, int idx)
    {
        // Race already decided while this attempt was on the wire.
        if (op->decided()) {
            retireAttempt(op, idx, loseFlags(op));
            return;
        }
        const Group &g = op->group();
        const bool is_hedge = idx == 1;
        AttemptExec &ex = op->exec[idx];
        // A failover retry excludes the server that just failed; hedge
        // backups exclude the primary as always.
        const int exclude = ex.exclude >= 0
                                ? ex.exclude
                                : (is_hedge ? op->primary_server : -1);
        const std::optional<int> resolved =
            is_hedge ? directory.resolveBackup(g.shard, exclude)
                     : directory.resolve(g.shard, exclude);
        // Every plan shard registers replicas at construction, so with a
        // healthy fleet resolution cannot fail. With injected faults it
        // legitimately can (every live candidate excluded or dead):
        // surface a fast client-side resolution error instead of
        // dropping the RPC (which would silently hang the request).
        if (!resolved) {
            ++fault_stats.resolution_failures;
            attemptFailed(op, idx);
            return;
        }
        const int server = *resolved;
        if (!is_hedge)
            op->primary_server = server;
        Replica &r = replicas[static_cast<std::size_t>(server)];
        // Dead target (the pre-discovery window, or a backup forced onto
        // a corpse): nothing accepts the connection; the client times
        // out. Hedging and failover retries are what mask this gap.
        if (r.dead) {
            ++fault_stats.dead_target_attempts;
            ex.server = server; // the retry must avoid it
            engine.schedule(cfg.faults.rpc_timeout_ns, sim::kEvTimer,
                            [this, op, idx] { attemptFailed(op, idx); });
            return;
        }
        ex.server_gen = r.gen;
        r.peak_queue =
            std::max(r.peak_queue, r.cores->inUse() + r.cores->queued() + 1);
        const sim::SimTime q0 = engine.now();
        r.cores->acquire([this, op, idx, q0, server] {
            startExecution(op, idx, q0, server);
        });
    }

    /** A replica core was granted: Pending -> Executing, or retire. */
    void
    startExecution(RpcOp *op, int idx, sim::SimTime q0, int server)
    {
        Replica &r = replicas[static_cast<std::size_t>(server)];
        AttemptExec &ex = op->exec[idx];
        AttemptRecord &rec = ex.rec;
        const Group &g = op->group();
        // Cancelled while queued: the winner returned before this
        // attempt reached a core, so it costs nothing but its slot.
        if (op->decided()) {
            if (tr)
                tr->record(op->request_id, obs::SpanKind::RemoteQueue,
                           ex.sp_attempt, q0, engine.now(), g.shard,
                           op->ni->net_id, op->batch_id, loseFlags(op));
            r.cores->release();
            retireAttempt(op, idx, loseFlags(op));
            return;
        }
        // The replica died (or rebooted) while this attempt sat in its
        // queue: the queued work is lost; the client discovers via its
        // timeout, which has already elapsed by core-grant time.
        if (r.dead || ex.server_gen != r.gen) {
            r.cores->release();
            ++fault_stats.lost_in_service;
            attemptFailed(op, idx);
            return;
        }
        Active *a = op->bt->req;
        // Transient interference: this attempt (not the logical RPC)
        // drew a slow event, so a hedged re-roll on another replica
        // escapes it. A persistent degradeReplica() slowdown stacks on
        // top and does NOT re-roll — every attempt on the bad host pays
        // it.
        const double interference =
            cfg.faults.straggler_prob > 0.0 &&
                    stats::bernoulli(ex.stream,
                                     cfg.faults.straggler_prob)
                ? kStragglerMultiplier
                : 1.0;
        const double remote_scale =
            cfg.sparse_platform.cpu_time_scale * interference * r.degrade;
        rec.queue = engine.now() - q0;
        rec.service = scaled(rpc::kHandlerFixedNs, remote_scale);
        rec.serde = scaled(rpc::serdeNs(op->req_bytes), remote_scale);
        rec.net_overhead = scaled(rpc::netOverheadNs(0), remote_scale);
        rec.sparse_op = scaled(
            static_cast<double>(op->lookups) * g.lookup_ns, remote_scale);
        const std::int64_t resp_bytes = netsim::sparseResponseBytes(
            static_cast<std::int64_t>(g.sum_dims), op->bt->batch_items);
        rec.serde += scaled(rpc::serdeNs(resp_bytes), remote_scale);

        // CPU accounting on the sparse shard — charged for every
        // executing attempt: duplicate hedge work is real work. A
        // mid-execution abort refunds the unexecuted part.
        chargeRemote(op, rec, 1.0);

        const sim::Duration busy =
            rec.service + rec.serde + rec.net_overhead + rec.sparse_op;
        advance(ex, AttemptState::Executing);
        ex.server = server;
        ex.exec_start = engine.now();
        ex.busy = busy;
        if (tr) {
            if (engine.now() > q0)
                tr->record(a->st.id, obs::SpanKind::RemoteQueue,
                           ex.sp_attempt, q0, engine.now(), g.shard,
                           op->ni->net_id, op->bt->batch_id);
            ex.sp_exec = tr->begin(a->st.id, obs::SpanKind::RemoteCompute,
                                   ex.sp_attempt, engine.now(), g.shard,
                                   op->ni->net_id, op->bt->batch_id);
        }
        engine.schedule(busy, sim::kEvSparseCompute,
                        [this, op, idx, resp_bytes] {
                            finishExecution(op, idx, resp_bytes);
                        });
    }

    /**
     * The attempt's busy period ran out: Executing -> Done, and the
     * first attempt of an open op to get here wins and sends its
     * response. Aborted attempts and replica deaths retire instead.
     * Deciding an op aborts its executing attempts (cancelSibling,
     * shedMidFlight), so one that gets here unaborted belongs to an open
     * op; a decided one throws std::logic_error.
     */
    void
    finishExecution(RpcOp *op, int idx, std::int64_t resp_bytes)
    {
        AttemptExec &self = op->exec[idx];
        if (self.state == AttemptState::Aborted) {
            // A winning sibling or a shed aborted this attempt
            // mid-service and already released the core and settled
            // accounting.
            derefOp(op);
            return;
        }
        if (op->decided())
            throw std::logic_error(
                "serving: attempt executed past its op's decision");
        Replica &r = replicas[static_cast<std::size_t>(self.server)];
        if (r.dead || self.server_gen != r.gen) {
            // The replica died mid-service: the compute was genuinely
            // burned (charges stand) but the response is lost with the
            // replica.
            advance(self, AttemptState::Aborted);
            r.cores->release();
            ++fault_stats.lost_in_service;
            if (tr)
                tr->end(self.sp_exec, engine.now(),
                        obs::kFlagCancelled | obs::kFlagFault);
            attemptFailed(op, idx);
            return;
        }
        advance(self, AttemptState::Done);
        r.cores->release();
        if (tr)
            tr->end(self.sp_exec, engine.now());
        op->state = OpState::Won;
        if (idx == 1) {
            ++hedge_stats.wins;
            ++op->bt->req->st.hedge_wins;
        }
        cancelSibling(op, idx);
        // The winner keeps its op reference until the response lands.
        const sim::Duration back = link.oneWayDelay(resp_bytes, self.stream);
        if (tr)
            tr->record(op->request_id, obs::SpanKind::WireBack,
                       self.sp_attempt, engine.now(), engine.now() + back,
                       op->group().shard, op->ni->net_id, op->batch_id);
        engine.schedule(back, sim::kEvWire, [this, op, idx, resp_bytes] {
            responseArrive(op, idx, resp_bytes);
        });
    }

    /**
     * Tied-request cancellation: the winning attempt aborts an executing
     * sibling mid-service, reclaiming the remainder of its busy time (the
     * servers notify each other, so the loser does not run to
     * completion). This is what makes hedging capacity-positive under
     * load — aborting a straggling primary after the fast backup answers
     * refunds most of the straggler's inflated service time. Runs on the
     * winner's completion path, where the request is guaranteed alive,
     * so the busy time the loser consumed is charged to it as wasted.
     */
    void
    cancelSibling(RpcOp *op, int winner_idx)
    {
        const int loser = 1 - winner_idx;
        if (op->exec[loser].state != AttemptState::Executing)
            return;
        const sim::Duration consumed = abortExecuting(
            op, loser, obs::kFlagCancelled | obs::kFlagLoser);
        op->bt->req->st.hedge_wasted_cpu_ns += static_cast<double>(consumed);
        hedge_stats.wasted_busy_ns += static_cast<double>(consumed);
        if (loser == 1)
            ++hedge_stats.losses; // the backup was the aborted attempt
    }

    /**
     * The winning attempt's response reached the main shard: it drops
     * the winner's op reference and, once the batch's last response is
     * in, merges.
     */
    void
    responseArrive(RpcOp *op, int idx, std::int64_t resp_bytes)
    {
        BatchState *bt = op->bt;
        Active *a = bt->req;
        const bool shed = a->state == RequestState::Shed;
        // The tracker sees the client-observed latency of the *logical*
        // RPC (primary dispatch to winning response), which is what the
        // next hedge deadline must be quantile-of. Its only reader is the
        // hedge timer, so without hedging it is not fed.
        if (cfg.hedge.enabled)
            hedge_tracker.add(engine.now() - op->dispatched);
        if (tr) {
            // A response landing after a mid-flight shed is discarded:
            // its spans close as cancelled debris.
            const auto fl = shed ? obs::kFlagCancelled : obs::kFlagNone;
            tr->end(op->exec[idx].sp_attempt, engine.now(), fl);
            tr->end(op->sp_op, engine.now(), fl);
        }
        // Memoize the pooled response for repeats of this (net, group,
        // batch shape) — unless the snapshot it was pooled from was
        // invalidated while on the wire.
        result_cache.insert(op->cache_key, resp_bytes, engine.now(),
                            op->cache_epoch);
        const AttemptRecord &rec = op->exec[idx].rec;
        const sim::Duration outstanding = engine.now() - rec.dispatched;
        if (!shed && outstanding > a->bounding_outstanding) {
            a->bounding = rec;
            a->bounding_outstanding = outstanding;
        }
        derefOp(op);
        if (shed) {
            // The client gave up on this request; the late response is
            // discarded at arrival (no deserde, no top dense).
            if (--bt->pending == 0)
                drainBatch(bt);
            return;
        }
        bt->response_bytes += resp_bytes;
        bt->last_response = engine.now();
        if (--bt->pending > 0)
            return;

        // All shards answered: deserialize responses + top dense.
        const sim::Duration embedded = bt->last_response - bt->dispatch_time;
        if (tr)
            tr->end(bt->sp_embed, bt->last_response);
        const sim::SimTime merge0 = engine.now();
        main_cores->acquireFront([this, a, bt, embedded, merge0] {
            if (a->state == RequestState::Shed) {
                main_cores->release();
                drainBatch(bt);
                return;
            }
            const sim::Duration resp_deserde =
                scaled(rpc::serdeNs(bt->response_bytes), mainScale());
            const sim::Duration top = bt->top_dense;
            a->st.cpu_serde_ns += static_cast<double>(resp_deserde);
            if (tr) {
                const int net_id = nets[bt->net_idx].net_id;
                if (engine.now() > merge0)
                    tr->record(a->st.id, obs::SpanKind::QueueWait,
                               bt->sp_batch, merge0, engine.now(),
                               obs::kMainShard, net_id, bt->batch_id);
                recordPhases(a, bt->sp_batch, net_id, bt->batch_id,
                             {{obs::SpanKind::ResponseDeserde, resp_deserde},
                              {obs::SpanKind::DenseTop, top}});
            }
            engine.schedule(resp_deserde + top, sim::kEvMainCompute,
                            [this, a, bt, embedded] {
                main_cores->release();
                if (a->state != RequestState::Shed) {
                    if (tr)
                        tr->end(bt->sp_batch, engine.now());
                    a->net_embedded_max =
                        std::max(a->net_embedded_max, embedded);
                }
                drainBatch(bt);
            });
        });
    }

    void
    batchDone(Active *a)
    {
        if (--a->batches_left > 0)
            return;
        if (a->state == RequestState::Shed) {
            // Last batch of the shed request drained; its stats were
            // emitted at shed time, so the carcass just goes away.
            if (tr)
                tr->end(a->sp_net, engine.now(), obs::kFlagCancelled);
            releaseActive(a);
            return;
        }
        if (tr)
            tr->end(a->sp_net, engine.now());
        a->st.lat_embedded += a->net_embedded_max;
        ++a->net_idx;
        startNet(a);
    }

    void
    finishRequest(Active *a)
    {
        // Past the point of useful shedding: the sparse work is done and
        // only the response serde remains, so the shed timer stands down.
        advance(a, RequestState::Finishing);
        const sim::SimTime q0 = engine.now();
        main_cores->acquireFront([this, a, q0] {
            const std::int64_t resp_bytes =
                netsim::rankingResponseBytes(a->req->items);
            const sim::Duration resp_serde =
                scaled(rpc::serdeNs(resp_bytes), mainScale());
            const sim::Duration handler =
                scaled(rpc::kHandlerFixedNs / 2, mainScale());
            a->st.lat_serde += resp_serde;
            a->st.cpu_serde_ns += static_cast<double>(resp_serde);
            a->st.lat_service += handler;
            a->st.cpu_service_ns += static_cast<double>(handler);
            if (tr) {
                if (engine.now() > q0)
                    tr->record(a->st.id, obs::SpanKind::QueueWait,
                               a->sp_root, q0, engine.now());
                tr->record(a->st.id, obs::SpanKind::ResponseSerialize,
                           a->sp_root, engine.now(),
                           engine.now() + resp_serde + handler);
            }
            engine.schedule(resp_serde + handler, sim::kEvMainCompute,
                            [this, a] {
                main_cores->release();
                emitStats(a, ShedReason::None);
            });
        });
    }
};

ServingSimulation::ServingSimulation(const model::ModelSpec &spec,
                                     const ShardingPlan &plan,
                                     ServingConfig config)
{
    std::string error;
    if (!spec.validate(&error))
        throw std::invalid_argument("ServingSimulation: model spec: " + error);
    if (!plan.validate(spec, &error))
        throw std::invalid_argument("ServingSimulation: sharding plan: " +
                                    error);
    validateConfig(config);
    impl_ = std::make_unique<Impl>(spec, plan, config);
}

ServingSimulation::~ServingSimulation() = default;

std::vector<RequestStats>
ServingSimulation::replaySerial(const std::vector<workload::Request> &requests)
{
    std::vector<RequestStats> results;
    results.reserve(requests.size());

    // Chain injections: each request enters when the previous completes.
    // The completion closure captures two words, which std::function
    // stores inline, so the chain costs no allocation per request.
    struct Chain
    {
        Impl *impl;
        const std::vector<workload::Request> *requests;
        std::vector<RequestStats> *results;

        void
        launch(std::size_t i)
        {
            if (i >= requests->size())
                return;
            impl->inject((*requests)[i], [this, i](const RequestStats &st) {
                results->push_back(st);
                impl->engine.schedule(0, sim::kEvDriver,
                                      [this, i] { launch(i + 1); });
            });
        }
    };
    Chain chain{impl_.get(), &requests, &results};
    chain.launch(0);
    impl_->engine.run();
    checkDrained();
    return results;
}

std::vector<RequestStats>
ServingSimulation::replayOpenLoop(
    const std::vector<workload::Request> &requests, double qps)
{
    if (!(qps > 0.0) || !std::isfinite(qps))
        throw std::invalid_argument("replayOpenLoop: qps must be finite and "
                                    "> 0, got " + std::to_string(qps));
    std::vector<RequestStats> results;
    results.reserve(requests.size());

    // Chain the arrivals: arrival i, when it fires, draws arrival i+1's
    // gap from the private stream and schedules it under the tie-break
    // number reserved for it here. Every arrival keeps the (time, number)
    // it would have had scheduled up front, so the dispatch order is
    // unchanged while the heap holds only in-flight work.
    struct Chain
    {
        Impl *impl;
        const std::vector<workload::Request> *requests;
        std::vector<RequestStats> *results;
        stats::Rng arrivals;
        double qps;
        std::uint64_t first_seq;
        sim::SimTime t;

        void
        schedule(std::size_t i)
        {
            t += static_cast<sim::Duration>(arrivals.exponential(qps) *
                                            static_cast<double>(sim::kSecond));
            impl->engine.scheduleAt(t, sim::kEvDriver, first_seq + i,
                                    [this, i] { arrive(i); });
        }

        void
        arrive(std::size_t i)
        {
            if (i + 1 < requests->size())
                schedule(i + 1);
            impl->inject((*requests)[i], [this](const RequestStats &st) {
                results->push_back(st);
            });
        }
    };
    Chain chain{impl_.get(), &requests, &results, impl_->rng.fork(0xa881),
                qps, impl_->engine.reserveSeq(requests.size()),
                impl_->engine.now()};
    if (!requests.empty())
        chain.schedule(0);
    impl_->engine.run();
    checkDrained();
    return results;
}

sim::Engine &
ServingSimulation::engine()
{
    return impl_->engine;
}

void
ServingSimulation::inject(
    const workload::Request &request,
    std::function<void(const RequestStats &)> on_complete,
    sim::SimTime arrival)
{
    impl_->inject(request, std::move(on_complete), arrival);
}

void
ServingSimulation::checkDrained() const
{
    const Impl &m = *impl_;
    const auto fail = [](const char *invariant) {
        throw std::logic_error(std::string("checkDrained: ") + invariant);
    };
    if (m.active_pool.live() != 0 || m.batch_pool.live() != 0 ||
        m.op_pool.live() != 0)
        fail("an object pool is not fully returned");
    const auto idle = [](const sim::Resource &r) {
        return r.inUse() == 0 && r.queued() == 0;
    };
    if (!idle(*m.main_cores))
        fail("a main-shard core is held or queued");
    for (const auto &r : m.replicas)
        if (!idle(*r.cores))
            fail("a replica core is held or queued");
    if (m.injected != m.emitted)
        fail("injected requests != emitted requests");
    if (m.tr != nullptr && m.tr->openCount() != 0)
        fail("the tracer has open spans");
}

ServingMetrics
ServingSimulation::metrics() const
{
    const Impl &m = *impl_;
    ServingMetrics out;
    out.at = m.engine.now();
    const auto elapsed = static_cast<double>(out.at);
    const auto utilization = [elapsed](const sim::Resource &r, double busy) {
        return stats::utilizationFraction(busy, r.capacity(), elapsed);
    };
    out.main_utilization =
        utilization(*m.main_cores, m.main_cores->busyIntegral());
    out.shards.resize(
        static_cast<std::size_t>(std::max(m.plan.numShards(), 0)));
    std::vector<int> shard_servers(out.shards.size(), 0);
    out.hedge = m.hedge_stats;
    out.servers.reserve(m.replicas.size());
    for (const auto &r : m.replicas) {
        const double busy = r.cores->busyIntegral();
        const ServerMetrics &server = out.servers.emplace_back(
            ServerMetrics{r.shard, !r.dead, busy, r.cores->capacity(),
                          utilization(*r.cores, busy), r.peak_queue});
        const auto s = static_cast<std::size_t>(r.shard);
        out.shards[s].busy_core_ms += busy / 1.0e6;
        out.shards[s].utilization += server.utilization;
        ++shard_servers[s];
        out.hedge.total_busy_ns += busy;
    }
    for (std::size_t s = 0; s < out.shards.size(); ++s)
        if (shard_servers[s] > 0)
            out.shards[s].utilization /= static_cast<double>(shard_servers[s]);
    out.result_cache = m.result_cache.stats();
    out.faults = m.fault_stats;
    out.shed_cancelled_rpcs = m.shed_cancelled_rpcs;
    return out;
}

bool
ServingSimulation::mainPoolIdle() const
{
    const sim::Resource &main = *impl_->main_cores;
    return main.queued() == 0 && main.inUse() < main.capacity();
}

void
ServingSimulation::invalidateResultCache()
{
    impl_->result_cache.invalidate();
}

void
ServingSimulation::killReplica(int server_id)
{
    impl_->setReplicaDead(server_id, true, "killReplica");
}

void
ServingSimulation::restoreReplica(int server_id)
{
    impl_->setReplicaDead(server_id, false, "restoreReplica");
}

void
ServingSimulation::degradeReplica(int server_id, double multiplier)
{
    auto &replica = impl_->replicaAt(server_id, "degradeReplica");
    if (!(multiplier > 0.0))
        throw std::invalid_argument(
            "degradeReplica: multiplier must be > 0, got " +
            std::to_string(multiplier));
    replica.degrade = multiplier;
}

void
ServingSimulation::partitionShard(int shard_id, bool partitioned)
{
    if (shard_id < 0 ||
        static_cast<std::size_t>(shard_id) >= impl_->shard_partitioned.size())
        throw std::out_of_range("partitionShard: shard id " +
                                std::to_string(shard_id) + " out of range");
    impl_->shard_partitioned[static_cast<std::size_t>(shard_id)] =
        partitioned ? 1 : 0;
}

} // namespace dri::core
