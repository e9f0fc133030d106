/**
 * @file
 * Dynamic request batching in front of the serving simulation.
 *
 * The paper replays requests that arrive pre-batched at their production
 * sizes; a real serving tier *forms* those batches by coalescing the
 * requests of many users under a max-batch-size / max-queue-delay policy
 * (the ranking analogue of inference-server dynamic batching). The
 * DynamicBatcher closes that gap: it runs on the simulation's own
 * discrete-event clock, merges arrivals into super-requests
 * (workload::mergeRequests), injects them through
 * core::ServingSimulation::inject, and expands each merged completion back
 * into per-original-request stats whose E2E includes the time spent
 * waiting in the batcher (RequestStats::batch_wait).
 *
 * Three flush policies span the classic latency/throughput trade-off:
 *  - SizeCapped:    flush only when the batch is full (max throughput;
 *                   unbounded wait at low arrival rates).
 *  - TimeoutCapped: flush when the oldest queued request has waited
 *                   max_queue_delay, or earlier on a full batch (bounded
 *                   added latency).
 *  - Adaptive:      estimate from the observed arrival rate whether the
 *                   batch can fill before the delay bound; if it cannot,
 *                   flush immediately (low-load latency of no batching,
 *                   high-load throughput of SizeCapped).
 *  - QueueAware:    bound the coalescing delay by *observed main-shard
 *                   queueing* instead of the arrival rate: when the main
 *                   pool has an idle worker and no backlog, waiting can
 *                   only add latency, so flush immediately; while a
 *                   backlog exists the riders would be queueing anyway,
 *                   so coalescing is free — hold until the size cap or
 *                   the delay bound. Reads the simulation's live
 *                   mainQueueDepth()/mainIdleWorkers() probe.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/serving.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

namespace dri::sched {

/** When does a pending batch get injected? */
enum class BatchPolicy
{
    SizeCapped,
    TimeoutCapped,
    Adaptive,
    QueueAware,
};

/** Flush once this many requests are pending, under every policy. */
inline constexpr std::size_t kMaxBatchRequests = 32;
static_assert(kMaxBatchRequests > 0);

/** Batching policy parameters. */
struct BatcherConfig
{
    BatchPolicy policy = BatchPolicy::TimeoutCapped;
    /** Flush once the pending batch reaches this many items. */
    std::int64_t max_batch_items = 2048;
    /** Max time the oldest pending request may wait before injection. */
    sim::Duration max_queue_delay_ns = 2 * sim::kMillisecond;
    /**
     * Optional metrics registry (src/obs). When set, every flush bumps
     * `batcher.flushes` and records `batcher.coalesced` (riders per
     * injected batch) and `batcher.hold_us` (oldest-rider coalescing
     * wait) histograms. Pure observer — attaching it never changes
     * batching decisions or RequestStats. Not owned.
     */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * Coalesces offered requests into merged injections on the simulation's
 * event clock. Single-use: offer() during a replay, then takeStats()
 * after the engine drains.
 */
class DynamicBatcher
{
  public:
    /**
     * Throws std::invalid_argument, in every build type, unless
     * max_batch_items > 0 and max_queue_delay_ns >= 0.
     */
    DynamicBatcher(core::ServingSimulation &sim, BatcherConfig config);

    DynamicBatcher(const DynamicBatcher &) = delete;
    DynamicBatcher &operator=(const DynamicBatcher &) = delete;

    /**
     * Offer one request at the current simulated time. Depending on the
     * policy this may inject immediately or queue the request for a
     * later (timer-driven) flush. The request is copied.
     */
    void offer(const workload::Request &request);

    /** Inject whatever is pending (end-of-stream drain). */
    void flush();

    /**
     * Per-original-request stats of batches completed so far. Each entry
     * carries the merged batch's service latencies but its own id, item
     * count, arrival time, E2E (completion - own arrival) and batch_wait.
     */
    std::vector<core::RequestStats> takeStats();

    /** Merged batches injected so far. */
    std::size_t batchesInjected() const { return batches_injected_; }

    /** Mean original requests per injected batch (1 when empty). */
    double meanCoalesced() const;

  private:
    struct PendingPart
    {
        workload::Request request;
        sim::SimTime arrival = 0;
    };

    /** A merged batch in flight; owns the Request the sim points into. */
    struct InFlight
    {
        workload::Request merged;
        std::vector<PendingPart> parts;
        sim::SimTime injected_at = 0;
    };

    void flushNow();
    void armTimer(sim::SimTime deadline);
    void onBatchComplete(InFlight &batch,
                         const core::RequestStats &merged_stats);

    core::ServingSimulation &sim_;
    BatcherConfig cfg_;

    std::vector<PendingPart> pending_;
    std::int64_t pending_items_ = 0;
    sim::SimTime oldest_arrival_ = 0;
    /** Bumped on every flush; stale timers check it and no-op. */
    std::uint64_t epoch_ = 0;
    bool timer_armed_ = false;

    /** Stable storage: sim holds pointers into merged requests. */
    std::deque<InFlight> in_flight_;
    std::vector<core::RequestStats> stats_;
    std::size_t batches_injected_ = 0;
    std::size_t coalesced_total_ = 0;

    // Adaptive arrival-rate estimation.
    double ewma_interarrival_ns_ = 0.0;
    double ewma_items_ = 0.0;
    sim::SimTime last_arrival_ = -1;
};

/**
 * Open-loop Poisson replay routed through a DynamicBatcher: the sched
 * sibling of ServingSimulation::replayOpenLoop. Arrivals at `qps` are
 * offered to the batcher; a final flush drains the stream. Returns
 * per-original-request stats (batcher wait included in E2E). Runs with
 * the same `arrival_seed` see identical arrival processes, so batch-
 * policy comparisons are paired. Like replayOpenLoop, the arrivals are
 * chained under reserved tie-break numbers, so the event heap holds
 * only in-flight work, and a `qps` that is not finite and > 0 throws
 * std::invalid_argument in every build type. Once the engine drains it
 * runs sim.checkDrained(), which throws std::logic_error on leftovers.
 */
std::vector<core::RequestStats>
runBatchedOpenLoop(core::ServingSimulation &sim,
                   const std::vector<workload::Request> &requests,
                   double qps, const BatcherConfig &config,
                   std::uint64_t arrival_seed = 0xa881);

} // namespace dri::sched
