/**
 * @file
 * The request side of the serving simulation: it admits each request,
 * runs its nets and batches on the main shard, hands each batch's sparse
 * RPCs to the fan-out (core/rpc_fanout.h), and completes or sheds it.
 */
#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/lookup_model.h"
#include "core/rpc_fanout.h"
#include "netsim/message.h"
#include "obs/span_tracer.h"
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
    const std::pair<const char *, double> finite_non_negative[] = {
        {"hedge.max_hedge_fraction", c.hedge.max_hedge_fraction},
        {"lookup_base_ns", c.lookup_base_ns},
        {"lookup_ns_per_row_byte", c.lookup_ns_per_row_byte},
    };
    for (const auto &[field, value] : finite_non_negative)
        if (!(value >= 0.0) || !std::isfinite(value))
            fail(std::string(field) + " must be finite and >= 0");
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

struct Active;

/** A distributed batch: its fan-out and the merge that waits on it. */
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
    /** The RPCs the batch sends (groups with work, cache misses). */
    std::vector<RpcCall> calls;
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

/** Full simulation state; hidden behind the facade. */
struct ServingSimulation::Impl final : RpcFanout::Owner
{
    // -- Static deployment description ------------------------------------

    struct NetInfo
    {
        int net_id = 0;
        double dense_ns_per_item = 0.0;
        double dense_fixed_ns = 0.0;
        std::vector<FanoutTarget> groups; //!< empty for singular
        double inline_lookup_ns = 0.0;    //!< singular per-row gather cost
    };

    Impl(const model::ModelSpec &spec, const ShardingPlan &plan,
         const ServingConfig &config)
        : spec(spec), plan(plan), cfg(config),
          // Cache the tracer pointer once: the hot path pays exactly one
          // null check per emission site when tracing is off.
          tr(config.tracer != nullptr && config.tracer->enabled()
                 ? config.tracer
                 : nullptr),
          main_cores(std::make_unique<sim::Resource>(
              engine, static_cast<std::size_t>(
                          config.worker_threads > 0
                              ? std::min(config.worker_threads,
                                         config.main_platform.cores)
                              : config.main_platform.cores))),
          rng(config.seed),
          fanout(engine, tr, cfg, plan.numShards(), rng, *this)
    {
        buildNetInfos();
    }

    const model::ModelSpec &spec;
    const ShardingPlan plan;
    ServingConfig cfg;
    /** Cached span tracer; null when tracing is disabled. */
    obs::SpanTracer *tr = nullptr;

    sim::Engine engine;
    std::unique_ptr<sim::Resource> main_cores;
    stats::Rng rng;

    std::vector<NetInfo> nets;
    /** Requests injected and stats emitted; equal once the engine drains. */
    std::uint64_t injected = 0;
    std::uint64_t emitted = 0;

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

    /** The sparse-RPC layer: replicas, ops and attempts. */
    RpcFanout fanout;

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
        auto calls = std::move(bt->calls);
        bt->~BatchState();
        new (bt) BatchState();
        ops.clear();
        calls.clear();
        bt->ops = std::move(ops);
        bt->calls = std::move(calls);
        batch_pool.release(bt);
    }

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
        auto groups = fanoutGroups(spec, plan);
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
            for (auto &fg : groups[n]) {
                FanoutTarget g(std::move(fg));
                g.net_id = ni.net_id;
                g.gi = ni.groups.size();
                g.shard_net_idx =
                    static_cast<std::size_t>(g.shard) * spec.nets.size() + n;
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
            const FanoutTarget &g = ni.groups[gi];
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
        fanout.release(bt->ops);
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
            // Only open ops leave pending; a decided op's response is
            // delivered or still in flight.
            const int open = fanout.cancel(bt->ops);
            if (open > 0 && (bt->pending -= open) == 0)
                drained.push_back(bt);
        }

        // 2. Emit the settled stats. The root span closes here, at the
        // moment the client gives up; the remaining machinery drains as
        // cancelled debris spans that may outlive it.
        emitStats(a, reason);

        // 3. Retire the batches the cancellation emptied.
        for (BatchState *bt : drained)
            drainBatch(bt);
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
            for (const FanoutTarget &g : ni.groups) {
                const std::int64_t lk =
                    batchShare(a->group_lookups[g.gi], a->nb, b);
                if (lk == 0)
                    continue;
                // Pooled-result cache: a fresh memoized response for this
                // (net, group, batch shape) short-circuits the whole RPC —
                // no serde, no wire, no remote queue, no remote gather.
                if (fanout.cacheEnabled()) {
                    const bool hit = fanout.cacheHit(
                        g.cacheKey(bitems, lk, a->req->content_hash, b));
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
                bt->calls.push_back({&g, lk});
                const std::int64_t bytes = netsim::sparseRequestBytes(
                    lk, g.tableCount(), bitems);
                send_cpu += scaled(rpc::serdeNs(bytes), mainScale()) +
                            scaled(rpc::kClientDispatchNs, mainScale());
            }
            if (bt->calls.empty()) {
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
        bt->pending = static_cast<int>(bt->calls.size());
        bt->dispatch_time = engine.now();
        if (tr)
            bt->sp_embed = tr->begin(a->st.id, obs::SpanKind::EmbeddedWait,
                                     bt->sp_batch, engine.now(),
                                     obs::kMainShard, ni.net_id,
                                     bt->batch_id);
        a->live_batches.push_back(bt);
        fanout.send({bt, &a->st, a->req->content_hash, bt->batch_id,
                     bt->batch_items, bt->sp_embed},
                    bt->calls, bt->ops);
        // The async RPC ops release the worker CORE (other requests may
        // use it) but the batch's net execution blocks on the wait op, so
        // the intra-request slot is held until the batch completes
        // (Fig. 3 semantics).
        main_cores->release();
    }

    /** The one place a request leaves Live; throws if it already has. */
    static void
    advance(Active *a, RequestState to)
    {
        if (a->state != RequestState::Live)
            throw std::logic_error("serving: illegal request transition");
        a->state = to;
    }

    /** A primary failed past its retry budget: its request fails. */
    void
    upstreamFailed(BatchState *bt) override
    {
        shedMidFlight(bt->req, ShedReason::UpstreamFailure);
    }

    /**
     * A winning response of `bt` reached the main shard; once the
     * batch's last response is in, merge.
     */
    void
    responseLanded(BatchState *bt, std::int64_t resp_bytes,
                   const AttemptRecord &winner) override
    {
        Active *a = bt->req;
        if (a->state == RequestState::Shed) {
            // The client gave up on this request; the late response is
            // discarded at arrival (no deserde, no top dense).
            if (--bt->pending == 0)
                drainBatch(bt);
            return;
        }
        const sim::Duration outstanding = engine.now() - winner.dispatched;
        if (outstanding > a->bounding_outstanding) {
            a->bounding = winner;
            a->bounding_outstanding = outstanding;
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
        m.fanout.liveOps() != 0)
        fail("an object pool is not fully returned");
    if (m.main_cores->inUse() != 0 || m.main_cores->queued() != 0)
        fail("a main-shard core is held or queued");
    if (!m.fanout.replicasIdle())
        fail("a replica core is held or queued");
    if (m.injected != m.emitted)
        fail("injected requests != emitted requests");
    if (m.tr != nullptr && m.tr->openCount() != 0)
        fail("the tracer has open spans");
}

ServingMetrics
ServingSimulation::metrics() const
{
    const sim::Resource &main = *impl_->main_cores;
    ServingMetrics out;
    out.at = impl_->engine.now();
    out.main_utilization = stats::utilizationFraction(
        main.busyIntegral(), main.capacity(), static_cast<double>(out.at));
    impl_->fanout.addMetrics(out);
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
    impl_->fanout.invalidateResultCache();
}

void
ServingSimulation::killReplica(int server_id)
{
    impl_->fanout.setReplicaDead(server_id, true, "killReplica");
}

void
ServingSimulation::restoreReplica(int server_id)
{
    impl_->fanout.setReplicaDead(server_id, false, "restoreReplica");
}

void
ServingSimulation::degradeReplica(int server_id, double multiplier)
{
    impl_->fanout.degradeReplica(server_id, multiplier);
}

void
ServingSimulation::partitionShard(int shard_id, bool partitioned)
{
    impl_->fanout.partitionShard(shard_id, partitioned);
}

} // namespace dri::core
