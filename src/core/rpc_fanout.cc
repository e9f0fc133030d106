/**
 * @file
 * The sparse-RPC fan-out: it races each op's attempts across the replica
 * servers and decides the op (core/rpc_fanout.h has the lifecycle).
 */
#include "core/rpc_fanout.h"

#include <algorithm>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>

#include "netsim/message.h"
#include "obs/span_tracer.h"
#include "rpc/service.h"
#include "stats/summary.h"

namespace dri::core {

namespace {

/**
 * Failover retries per logical sparse RPC before the whole request
 * fails upstream (ShedReason::UpstreamFailure). Each retry re-pays
 * client dispatch CPU and re-resolves excluding the server that
 * just failed.
 */
constexpr int kMaxAttemptRetries = 2;
/** Remote-execution slowdown of a straggler-interfered attempt. */
constexpr double kStragglerMultiplier = 8.0;

/**
 * Replicas of each shard: sparse_replicas_per_shard[s] where that is
 * positive, else sparse_replicas (the directory raises it to at least 1).
 */
std::vector<int>
replicaCounts(const ServingConfig &cfg, int num_shards)
{
    std::vector<int> counts(static_cast<std::size_t>(std::max(num_shards, 0)),
                            cfg.sparse_replicas);
    const auto &per_shard = cfg.sparse_replicas_per_shard;
    for (std::size_t s = 0; s < counts.size() && s < per_shard.size(); ++s)
        if (per_shard[s] > 0)
            counts[s] = per_shard[s];
    return counts;
}

/**
 * Where one attempt is in its lifecycle; the file comment of
 * core/rpc_fanout.h diagrams the transitions. Pending covers the wire
 * and the replica's queue.
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
 * The one place an attempt changes state: Pending -> Executing ->
 * Done | Aborted. A failover relaunch starts over from a fresh
 * AttemptExec instead. Throws std::logic_error on any other move.
 */
void
advance(AttemptExec &ex, AttemptState to)
{
    if (ex.state != (to == AttemptState::Executing ? AttemptState::Pending
                                                   : AttemptState::Executing))
        throw std::logic_error("serving: illegal attempt transition");
    ex.state = to;
}

} // namespace

/**
 * One logical sparse RPC — a fan-out group of one batch — possibly
 * raced by two attempts (primary + hedge). Reference-counted: each
 * in-flight attempt holds one ref, and so does its fan-out's hedge
 * timer until it has fired (and any re-arm) for this op; exactly
 * one attempt wins (first to finish remote service) and holds its ref
 * until its response lands, the rest cancel (before, during, or after
 * execution). Once decided, an op stays decided: every attempt still
 * in flight retires without a response.
 */
struct RpcOp
{
    /** Dangles once the batch drains, which a loser may outlive. */
    BatchState *bt = nullptr;
    /**
     * The request's stats, charged while the op is open or being
     * decided; null once the request is shed.
     */
    RequestStats *st = nullptr;
    const FanoutTarget *target = nullptr;
    std::int64_t lookups = 0;
    std::int64_t req_bytes = 0;
    std::int64_t resp_bytes = 0;
    std::uint64_t request_id = 0; //!< span identity, safe for losers
    int batch_id = 0;
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
    /** Next op of the fan-out's hedge timer (HedgeGroup). */
    RpcOp *hedge_next = nullptr;

    bool decided() const { return state != OpState::Open; }

    /**
     * Span flags for an attempt self-cancelling after the op was
     * decided: a race decision makes it a loser; a shed poisons the op
     * with no winner, so the attempt is merely cancelled.
     */
    std::uint8_t
    loseFlags() const
    {
        return state == OpState::Shed
                   ? static_cast<std::uint8_t>(obs::kFlagCancelled)
                   : static_cast<std::uint8_t>(obs::kFlagCancelled |
                                               obs::kFlagLoser);
    }
};

/**
 * One sparse-shard replica server (see directory). The fault fields
 * stay inert unless the control surface is exercised.
 */
struct RpcFanout::Replica
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

/** One fan-out's hedge timer: the ops that armed it, linked in arm
 *  order through RpcOp::hedge_next, and the first arm's tie-break. */
struct RpcFanout::HedgeGroup
{
    RpcOp *head = nullptr, *tail = nullptr;
    sim::Duration deadline = 0;
    std::uint64_t seq = 0;
};

RpcFanout::RpcFanout(sim::Engine &engine, obs::SpanTracer *tr,
                     const ServingConfig &cfg, int num_shards,
                     const stats::Rng &rng, Owner &owner)
    : engine(engine), tr(tr), cfg(cfg), rng(rng), owner(owner),
      client_dispatch(
          scaled(rpc::kClientDispatchNs, cfg.main_platform.cpu_time_scale)),
      directory(replicaCounts(cfg, num_shards), cfg.lb_policy,
                cfg.seed ^ 0x10adbau),
      link(cfg.link), hedge_tracker(rpc::kHedgeWindow, cfg.hedge.quantile),
      result_cache(cfg.result_cache)
{
    const dc::Platform &platform = cfg.sparse_platform;
    const int threads = cfg.sparse_worker_threads > 0
                            ? cfg.sparse_worker_threads
                            : cfg.worker_threads;
    const auto sparse_threads = static_cast<std::size_t>(
        threads > 0 ? std::min(threads, platform.cores) : platform.cores);
    // Replica i is the directory's server i: shard-major, one run per
    // shard.
    for (int s = 0; s < num_shards; ++s)
        for (int r = 0; r < directory.replicaCount(s); ++r)
            replicas.push_back(
                {std::make_unique<sim::Resource>(engine, sparse_threads), s});
    shard_partitioned.assign(static_cast<std::size_t>(std::max(num_shards, 0)),
                             0);
}

RpcFanout::~RpcFanout() = default;

// -- Request-side entry points ------------------------------------------------

void
RpcFanout::send(const FanoutBatch &b, const std::vector<RpcCall> &calls,
                std::vector<RpcOp *> &ops)
{
    HedgeGroup hg;
    for (const auto &[target, lookups] : calls) {
        const std::int64_t req_bytes = netsim::sparseRequestBytes(
            lookups, target->tableCount(), b.batch_items);
        // Client-side serde/dispatch CPU was spent before the send;
        // account it.
        b.st->cpu_serde_ns += static_cast<double>(rpc::serdeNs(req_bytes)) *
                              cfg.main_platform.cpu_time_scale;
        b.st->cpu_service_ns += static_cast<double>(client_dispatch);
        ++b.st->rpc_count;
        ++hedge_stats.primary_rpcs;

        RpcOp *op = op_pool.acquire();
        op->bt = b.bt;
        op->st = b.st;
        op->target = target;
        op->lookups = lookups;
        op->req_bytes = req_bytes;
        op->resp_bytes = netsim::sparseResponseBytes(
            static_cast<std::int64_t>(target->sum_dims), b.batch_items);
        op->request_id = b.st->id;
        op->batch_id = b.batch_id;
        op->dispatched = engine.now();
        op->cache_key = target->cacheKey(b.batch_items, lookups,
                                         b.content_hash, b.batch_id);
        op->cache_epoch = result_cache.epoch();
        op->refs = 2; // the primary attempt + the batch's ops registry
        if (tr)
            op->sp_op = tr->begin(b.st->id, obs::SpanKind::RpcOp, b.parent,
                                  engine.now(), target->shard,
                                  target->net_id, b.batch_id);
        ops.push_back(op);
        launchAttempt(op, 0);
        maybeScheduleHedge(op, hg);
    }
    if (hg.head != nullptr)
        engine.scheduleAt(
            engine.now() + hg.deadline, sim::kEvTimer, hg.seq,
            [this, op = hg.head, deadline = hg.deadline]() mutable {
                for (RpcOp *next; op != nullptr; op = next) {
                    next = op->hedge_next; // the call may release op
                    hedgeTimerFired(op, deadline);
                }
            });
}

int
RpcFanout::cancel(const std::vector<RpcOp *> &ops)
{
    int cancelled = 0;
    for (RpcOp *op : ops) {
        if (!op->decided()) {
            op->state = OpState::Shed; // remaining attempts retire
            if (tr)
                tr->end(op->sp_op, engine.now(), obs::kFlagCancelled);
            ++shed_cancelled_rpcs;
            ++cancelled;
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
        // Decided or not, the request's stats are out: a response still
        // on the wire is discarded when it lands.
        op->st = nullptr;
    }
    return cancelled;
}

void
RpcFanout::release(const std::vector<RpcOp *> &ops)
{
    for (RpcOp *op : ops)
        derefOp(op);
}

// -- Injected-fault machinery (runtime control surface) -----------------------

/** The replica with server id `server`; throws std::out_of_range. */
RpcFanout::Replica &
RpcFanout::replicaAt(int server, const char *what)
{
    if (server < 0 || static_cast<std::size_t>(server) >= replicas.size())
        throw std::out_of_range(std::string(what) + ": server id " +
                                std::to_string(server) + " out of range");
    return replicas[static_cast<std::size_t>(server)];
}

/**
 * Either transition bumps the replica's generation: a kill dooms its
 * queued and executing work, and outage-era work stays lost after a
 * revival. The service directory learns of it after the configured
 * discovery lag. Stale updates are dropped: if the replica's liveness
 * changed again within the lag (kill -> restore), the earlier timer
 * must not flap the directory backwards — the later timer carries the
 * current truth.
 */
void
RpcFanout::setReplicaDead(int server, bool dead, const char *what)
{
    Replica &r = replicaAt(server, what);
    if (r.dead == dead)
        return;
    r.dead = dead;
    ++r.gen;
    ++(dead ? fault_stats.kills : fault_stats.restores);
    const auto apply = [this, server, healthy = !dead] {
        if (replicas[static_cast<std::size_t>(server)].dead == !healthy)
            directory.setServerHealth(server, healthy);
    };
    const sim::Duration lag = cfg.faults.discovery_lag_ns;
    if (lag <= 0)
        apply();
    else
        engine.schedule(lag, sim::kEvTimer, apply);
}

void
RpcFanout::degradeReplica(int server, double multiplier)
{
    Replica &r = replicaAt(server, "degradeReplica");
    if (!(multiplier > 0.0) || !std::isfinite(multiplier))
        throw std::invalid_argument(
            "degradeReplica: multiplier must be finite and > 0, got " +
            std::to_string(multiplier));
    r.degrade = multiplier;
}

void
RpcFanout::partitionShard(int shard, bool partitioned)
{
    if (shard < 0 ||
        static_cast<std::size_t>(shard) >= shard_partitioned.size())
        throw std::out_of_range("partitionShard: shard id " +
                                std::to_string(shard) + " out of range");
    shard_partitioned[static_cast<std::size_t>(shard)] = partitioned ? 1 : 0;
}

// -- Reads --------------------------------------------------------------------

void
RpcFanout::addMetrics(ServingMetrics &out) const
{
    const auto elapsed = static_cast<double>(out.at);
    out.shards.resize(shard_partitioned.size());
    std::vector<int> shard_servers(out.shards.size(), 0);
    out.hedge = hedge_stats;
    out.servers.reserve(replicas.size());
    for (const auto &r : replicas) {
        const double busy = r.cores->busyIntegral();
        const ServerMetrics &server = out.servers.emplace_back(ServerMetrics{
            r.shard, !r.dead, busy, r.cores->capacity(),
            stats::utilizationFraction(busy, r.cores->capacity(), elapsed),
            r.peak_queue});
        const auto s = static_cast<std::size_t>(r.shard);
        out.shards[s].busy_core_ms += busy / 1.0e6;
        out.shards[s].utilization += server.utilization;
        ++shard_servers[s];
        out.hedge.total_busy_ns += busy;
    }
    for (std::size_t s = 0; s < out.shards.size(); ++s)
        if (shard_servers[s] > 0)
            out.shards[s].utilization /= static_cast<double>(shard_servers[s]);
    out.result_cache = result_cache.stats();
    out.faults = fault_stats;
    out.shed_cancelled_rpcs = shed_cancelled_rpcs;
}

bool
RpcFanout::replicasIdle() const
{
    return std::all_of(replicas.begin(), replicas.end(), [](const auto &r) {
        return r.cores->inUse() == 0 && r.cores->queued() == 0;
    });
}

// -- Op and attempt lifecycle ---------------------------------------------------

/** Drop one reference; the last one recycles the op pristine. */
void
RpcFanout::derefOp(RpcOp *op)
{
    if (--op->refs != 0)
        return;
    op->~RpcOp();
    new (op) RpcOp();
    op_pool.release(op);
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
RpcFanout::attemptFailed(RpcOp *op, int idx)
{
    const std::uint8_t failed = obs::kFlagCancelled | obs::kFlagFault;
    if (op->decided()) {
        // Race decided while the timeout ran (sibling answered, or
        // the request was shed): this is just debris to drop.
        retireAttempt(op, idx, op->loseFlags() | obs::kFlagFault);
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
        // request is still Live, which the shed checks, and keeps its
        // batch from draining, so `bt` outlives the retirement.
        BatchState *bt = op->bt;
        retireAttempt(op, idx, failed);
        ++fault_stats.upstream_failures;
        owner.upstreamFailed(bt);
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
    op->st->cpu_service_ns += static_cast<double>(client_dispatch);
    const int failed_server = ex.server;
    ex = AttemptExec{}; // fresh slot for the relaunch
    ex.exclude = failed_server;
    launchAttempt(op, 0); // inherits this attempt's op reference
}

/**
 * Add `w` times an attempt's remote busy components to its request's
 * cpu_* and per-shard op buckets: w = 1 charges an execution, and
 * w = -f refunds the unexecuted fraction f of an aborted one, so an
 * abort reverses exactly the buckets the execution charged.
 */
void
RpcFanout::chargeRemote(const RpcOp *op, const AttemptRecord &rec, double w)
{
    RequestStats &st = *op->st;
    const double op_ns = w * static_cast<double>(rec.sparse_op);
    st.cpu_service_ns +=
        w * static_cast<double>(rec.service + rec.net_overhead);
    st.cpu_serde_ns += w * static_cast<double>(rec.serde);
    st.cpu_ops_ns += op_ns;
    st.shard_op_ns[static_cast<std::size_t>(op->target->shard)] += op_ns;
    st.shard_net_op_ns[op->target->shard_net_idx] += op_ns;
}

/**
 * The one exit of an attempt that gives up without executing: close
 * its span with `flags`, count a backup cancelled and drop its op
 * reference. Touches no batch or request state: a retiring attempt
 * of a decided op may outlive both.
 */
void
RpcFanout::retireAttempt(RpcOp *op, int idx, std::uint8_t flags)
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
 * (cancel) share it; each counts its own hedge outcome.
 * Returns the busy time consumed before the abort.
 */
sim::Duration
RpcFanout::abortExecuting(RpcOp *op, int idx, std::uint8_t span_flags)
{
    AttemptExec &ex = op->exec[idx];
    advance(ex, AttemptState::Aborted);
    if (tr) {
        tr->end(ex.sp_exec, engine.now(), span_flags);
        tr->end(ex.sp_attempt, engine.now(), span_flags);
    }
    const sim::Duration consumed = engine.now() - ex.exec_start;
    const double f = ex.busy > 0 ? static_cast<double>(ex.busy - consumed) /
                                       static_cast<double>(ex.busy)
                                 : 0.0;
    chargeRemote(op, ex.rec, -f);
    replicas[static_cast<std::size_t>(ex.server)].cores->release();
    return consumed;
}

/**
 * Arm the hedge at dispatch by joining the fan-out's one timer `hg`:
 * if the primary is still unresolved when the quantile-tracked
 * deadline passes, race a backup against it on a different replica.
 * The deadline is frozen at dispatch time (the tail-at-scale
 * formulation), so a fan-out shares it and its timer fires at the
 * first arm's tie-break; the budget is rechecked at fire time so
 * bursts cannot overshoot the cap.
 */
void
RpcFanout::maybeScheduleHedge(RpcOp *op, HedgeGroup &hg)
{
    const rpc::HedgeConfig &hc = cfg.hedge;
    if (!hc.enabled)
        return;
    if (directory.replicaCount(op->target->shard) < 2)
        return;
    if (hedge_tracker.count() < std::max<std::size_t>(1, hc.min_samples))
        return;
    const sim::Duration deadline = hedge_tracker.value();
    ++op->refs; // the timer (held across re-arms)
    if (hg.head == nullptr)
        hg = {op, op, deadline, engine.reserveSeq(1)};
    else if (deadline != hg.deadline) // hedge_tracker moved mid-loop
        throw std::logic_error("serving: two deadlines in one fan-out");
    else
        hg.tail = hg.tail->hedge_next = op;
}

void
RpcFanout::hedgeTimerFired(RpcOp *op, sim::Duration deadline)
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
        ++op->st->hedges;
        // Backup dispatch CPU; the serialized payload is reused,
        // so no second serde charge.
        op->st->cpu_service_ns += static_cast<double>(client_dispatch);
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
RpcFanout::launchAttempt(RpcOp *op, int idx)
{
    const FanoutTarget &g = *op->target;
    AttemptExec &ex = op->exec[idx];
    if (tr) {
        ex.sp_attempt = tr->begin(
            op->request_id, obs::SpanKind::RpcAttempt, op->sp_op,
            engine.now(), g.shard, g.net_id, op->batch_id,
            idx == 1 ? obs::kFlagHedge : obs::kFlagNone);
    }
    ex.stream = stats::CounterStream(
        rng.forkSeed(attemptSalt(op->request_id, g.net_id, op->batch_id,
                                 g.gi, idx == 1, op->retries)));

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
                   engine.now(), engine.now() + out_delay, g.shard, g.net_id,
                   op->batch_id);
    engine.schedule(out_delay, sim::kEvWire,
                    [this, op, idx] { attemptArrive(op, idx); });
}

/** The attempt reached its shard: resolve a replica and queue there. */
void
RpcFanout::attemptArrive(RpcOp *op, int idx)
{
    // Race already decided while this attempt was on the wire.
    if (op->decided()) {
        retireAttempt(op, idx, op->loseFlags());
        return;
    }
    const FanoutTarget &g = *op->target;
    const bool is_hedge = idx == 1;
    AttemptExec &ex = op->exec[idx];
    // A failover retry excludes the server that just failed; hedge
    // backups exclude the primary as always.
    const int exclude = ex.exclude >= 0
                            ? ex.exclude
                            : (is_hedge ? op->primary_server : -1);
    // Load-aware replica selection reads live queue depth from the
    // worker pools (in-flight + queued), i.e. "outstanding requests".
    const auto load = [this](int server) {
        const sim::Resource &cores =
            *replicas[static_cast<std::size_t>(server)].cores;
        return cores.inUse() + cores.queued();
    };
    const std::optional<int> resolved =
        is_hedge ? directory.resolveBackup(g.shard, exclude, load)
                 : directory.resolve(g.shard, exclude, load);
    // Every plan shard has at least one server, so with a healthy
    // fleet resolution cannot fail. With injected faults it
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
    r.peak_queue = std::max(r.peak_queue, load(server) + 1);
    const sim::SimTime q0 = engine.now();
    r.cores->acquire([this, op, idx, q0, server] {
        startExecution(op, idx, q0, server);
    });
}

/** A replica core was granted: Pending -> Executing, or retire. */
void
RpcFanout::startExecution(RpcOp *op, int idx, sim::SimTime q0, int server)
{
    Replica &r = replicas[static_cast<std::size_t>(server)];
    AttemptExec &ex = op->exec[idx];
    AttemptRecord &rec = ex.rec;
    const FanoutTarget &g = *op->target;
    // Cancelled while queued: the winner returned before this
    // attempt reached a core, so it costs nothing but its slot.
    if (op->decided()) {
        if (tr)
            tr->record(op->request_id, obs::SpanKind::RemoteQueue,
                       ex.sp_attempt, q0, engine.now(), g.shard, g.net_id,
                       op->batch_id, op->loseFlags());
        r.cores->release();
        retireAttempt(op, idx, op->loseFlags());
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
    // Transient interference: this attempt (not the logical RPC)
    // drew a slow event, so a hedged re-roll on another replica
    // escapes it. A persistent degradeReplica() slowdown stacks on
    // top and does NOT re-roll — every attempt on the bad host pays
    // it.
    const double interference =
        cfg.faults.straggler_prob > 0.0 &&
                stats::bernoulli(ex.stream, cfg.faults.straggler_prob)
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
    rec.serde += scaled(rpc::serdeNs(op->resp_bytes), remote_scale);

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
            tr->record(op->request_id, obs::SpanKind::RemoteQueue,
                       ex.sp_attempt, q0, engine.now(), g.shard, g.net_id,
                       op->batch_id);
        ex.sp_exec = tr->begin(op->request_id, obs::SpanKind::RemoteCompute,
                               ex.sp_attempt, engine.now(), g.shard, g.net_id,
                               op->batch_id);
    }
    engine.schedule(busy, sim::kEvSparseCompute,
                    [this, op, idx] { finishExecution(op, idx); });
}

/**
 * The attempt's busy period ran out: Executing -> Done, and the
 * first attempt of an open op to get here wins and sends its
 * response. Aborted attempts and replica deaths retire instead.
 * Deciding an op aborts its executing attempts (cancelSibling,
 * cancel), so one that gets here unaborted belongs to an open op; a
 * decided one throws std::logic_error.
 */
void
RpcFanout::finishExecution(RpcOp *op, int idx)
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
        ++op->st->hedge_wins;
    }
    cancelSibling(op, idx);
    // The winner keeps its op reference until the response lands.
    const sim::Duration back =
        link.oneWayDelay(op->resp_bytes, self.stream);
    if (tr)
        tr->record(op->request_id, obs::SpanKind::WireBack, self.sp_attempt,
                   engine.now(), engine.now() + back, op->target->shard,
                   op->target->net_id, op->batch_id);
    engine.schedule(back, sim::kEvWire,
                    [this, op, idx] { responseArrive(op, idx); });
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
RpcFanout::cancelSibling(RpcOp *op, int winner_idx)
{
    const int loser = 1 - winner_idx;
    if (op->exec[loser].state != AttemptState::Executing)
        return;
    const sim::Duration consumed =
        abortExecuting(op, loser, obs::kFlagCancelled | obs::kFlagLoser);
    op->st->hedge_wasted_cpu_ns += static_cast<double>(consumed);
    hedge_stats.wasted_busy_ns += static_cast<double>(consumed);
    if (loser == 1)
        ++hedge_stats.losses; // the backup was the aborted attempt
}

/**
 * The winning attempt's response reached the main shard: feed the
 * hedge deadline, memoize the response, drop the winner's op
 * reference and hand the response to the request side.
 */
void
RpcFanout::responseArrive(RpcOp *op, int idx)
{
    // The tracker sees the client-observed latency of the *logical*
    // RPC (primary dispatch to winning response), which is what the
    // next hedge deadline must be quantile-of. Its only reader is the
    // hedge timer, so without hedging it is not fed.
    if (cfg.hedge.enabled)
        hedge_tracker.add(engine.now() - op->dispatched);
    if (tr) {
        // A response landing after a mid-flight shed is discarded:
        // its spans close as cancelled debris.
        const auto fl =
            op->st == nullptr ? obs::kFlagCancelled : obs::kFlagNone;
        tr->end(op->exec[idx].sp_attempt, engine.now(), fl);
        tr->end(op->sp_op, engine.now(), fl);
    }
    // Memoize the pooled response for repeats of this (net, group,
    // batch shape) — unless the snapshot it was pooled from was
    // invalidated while on the wire.
    result_cache.insert(op->cache_key, op->resp_bytes,
                        engine.now(), op->cache_epoch);
    BatchState *bt = op->bt;
    const std::int64_t resp_bytes = op->resp_bytes;
    const AttemptRecord winner = op->exec[idx].rec;
    derefOp(op);
    owner.responseLanded(bt, resp_bytes, winner);
}

} // namespace dri::core
