#include "sched/batcher.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dri::sched {

namespace {

/** Adaptive: EWMA smoothing for the arrival-rate estimate. */
constexpr double kEwmaAlpha = 0.2;

} // namespace

DynamicBatcher::DynamicBatcher(core::ServingSimulation &sim,
                               BatcherConfig config)
    : sim_(sim), cfg_(config)
{
    if (cfg_.max_batch_items <= 0)
        throw std::invalid_argument(
            "DynamicBatcher: max_batch_items must be > 0");
    if (cfg_.max_queue_delay_ns < 0)
        throw std::invalid_argument(
            "DynamicBatcher: max_queue_delay_ns must be >= 0");
}

void
DynamicBatcher::offer(const workload::Request &request)
{
    sim::Engine &engine = sim_.engine();
    const sim::SimTime now = engine.now();

    // Arrival-rate estimate for the adaptive policy.
    if (last_arrival_ >= 0) {
        const auto dt = static_cast<double>(now - last_arrival_);
        ewma_interarrival_ns_ =
            ewma_interarrival_ns_ <= 0.0
                ? dt
                : kEwmaAlpha * dt +
                      (1.0 - kEwmaAlpha) * ewma_interarrival_ns_;
    }
    const auto items = static_cast<double>(request.items);
    ewma_items_ = ewma_items_ <= 0.0
                      ? items
                      : kEwmaAlpha * items +
                            (1.0 - kEwmaAlpha) * ewma_items_;
    last_arrival_ = now;

    if (pending_.empty())
        oldest_arrival_ = now;
    pending_.push_back(PendingPart{request, now});
    pending_items_ += request.items;

    // Size triggers apply under every policy.
    if (pending_items_ >= cfg_.max_batch_items ||
        pending_.size() >= kMaxBatchRequests) {
        flushNow();
        return;
    }

    const sim::SimTime deadline = oldest_arrival_ + cfg_.max_queue_delay_ns;
    switch (cfg_.policy) {
    case BatchPolicy::SizeCapped:
        // Wait for the batch to fill; flush() drains the stream tail.
        break;
    case BatchPolicy::TimeoutCapped:
        if (!timer_armed_)
            armTimer(deadline);
        break;
    case BatchPolicy::Adaptive: {
        // Will the batch plausibly fill before the delay bound? Expected
        // fill time = missing items / observed item arrival rate. If not,
        // further waiting buys batching that won't materialize — inject
        // immediately (single-request batches at low load).
        if (ewma_interarrival_ns_ <= 0.0) {
            // No rate estimate yet: be conservative, bound the delay.
            if (!timer_armed_)
                armTimer(deadline);
            break;
        }
        const double items_per_ns =
            std::max(ewma_items_, 1.0) / ewma_interarrival_ns_;
        const double missing =
            static_cast<double>(cfg_.max_batch_items - pending_items_);
        const double fill_ns = missing / items_per_ns;
        if (now + static_cast<sim::Duration>(fill_ns) > deadline) {
            flushNow();
        } else if (!timer_armed_) {
            armTimer(deadline);
        }
        break;
    }
    case BatchPolicy::QueueAware: {
        // The delay bound follows *observed main-shard queueing*, not the
        // arrival rate: an idle main pool means the batch would start
        // executing right now, so holding it only adds latency — flush.
        // A backlog means the riders would sit in the worker queue
        // anyway; coalescing during that wait is free (and the bigger
        // batch amortizes per-request overhead), so hold until the size
        // cap fires or the delay bound expires.
        if (sim_.mainQueueDepth() == 0 && sim_.mainIdleWorkers() > 0) {
            flushNow();
        } else if (!timer_armed_) {
            armTimer(deadline);
        }
        break;
    }
    }
}

void
DynamicBatcher::armTimer(sim::SimTime deadline)
{
    sim::Engine &engine = sim_.engine();
    timer_armed_ = true;
    const std::uint64_t epoch = epoch_;
    // Queue-aware holds are conditional on the backlog persisting, so
    // they re-probe the main pool well before the delay bound: a drained
    // backlog releases the batch within one recheck quantum instead of
    // waiting out the full bound ("an idle main pool flushes
    // immediately" must hold mid-hold, not just at offer time).
    sim::SimTime when = deadline;
    if (cfg_.policy == BatchPolicy::QueueAware) {
        const sim::Duration recheck =
            std::max<sim::Duration>(1, cfg_.max_queue_delay_ns / 8);
        when = std::min(deadline, engine.now() + recheck);
    }
    engine.schedule(
        std::max<sim::Duration>(0, when - engine.now()), sim::kEvTimer,
        [this, epoch, deadline] {
            if (epoch != epoch_ || pending_.empty())
                return; // batch already flushed
            if (cfg_.policy == BatchPolicy::QueueAware &&
                sim_.engine().now() < deadline &&
                !(sim_.mainQueueDepth() == 0 &&
                  sim_.mainIdleWorkers() > 0)) {
                timer_armed_ = false;
                armTimer(deadline); // still backlogged: keep holding
                return;
            }
            flushNow();
        });
}

void
DynamicBatcher::flushNow()
{
    assert(!pending_.empty());
    ++epoch_; // invalidate any armed timer
    timer_armed_ = false;

    in_flight_.push_back(InFlight{});
    InFlight &batch = in_flight_.back();
    batch.parts = std::move(pending_);
    pending_.clear();
    pending_items_ = 0;

    std::vector<workload::Request> parts;
    parts.reserve(batch.parts.size());
    for (const auto &p : batch.parts)
        parts.push_back(p.request);
    batch.merged = workload::mergeRequests(parts);
    batch.injected_at = sim_.engine().now();

    ++batches_injected_;
    coalesced_total_ += batch.parts.size();

    if (cfg_.metrics != nullptr) {
        cfg_.metrics->counter("batcher.flushes").inc();
        cfg_.metrics->histogram("batcher.coalesced")
            .observe(static_cast<std::int64_t>(batch.parts.size()));
        cfg_.metrics->histogram("batcher.hold_us")
            .observe((batch.injected_at - batch.parts.front().arrival) /
                     sim::kMicrosecond);
    }

    // `batch` lives in the deque until completion; references from the
    // capture and from the sim's Request pointer stay valid (deque ends
    // never relocate elements). Backdating the arrival to the oldest
    // rider's queue entry makes the admission deadline see batcher wait.
    sim_.inject(
        batch.merged,
        [this, &batch](const core::RequestStats &st) {
            onBatchComplete(batch, st);
        },
        batch.parts.front().arrival);
}

void
DynamicBatcher::onBatchComplete(InFlight &batch,
                                const core::RequestStats &merged_stats)
{
    // Integer counters are distributed by cumulative item share so the
    // sum over riders equals the merged batch's count exactly.
    std::int64_t cum_items = 0;
    int rpc_assigned = 0, batches_assigned = 0;
    int hedges_assigned = 0, hedge_wins_assigned = 0;
    const auto share = [&](int total) {
        return static_cast<int>(std::llround(
            static_cast<double>(total) * static_cast<double>(cum_items) /
            static_cast<double>(batch.merged.items)));
    };
    for (const auto &part : batch.parts) {
        core::RequestStats st = merged_stats;
        st.id = part.request.id;
        st.items = part.request.items;
        st.arrival = part.arrival;
        st.e2e = merged_stats.completion - part.arrival;
        st.batch_wait = batch.injected_at - part.arrival;
        st.coalesced = static_cast<int>(batch.parts.size());
        // Latency is shared by every rider of the batch, but CPU and the
        // RPC/batch counters are not: attribute them by item share so
        // aggregates stay conserved and per-request costs show the
        // amortization batching buys.
        cum_items += part.request.items;
        st.rpc_count = share(merged_stats.rpc_count) - rpc_assigned;
        rpc_assigned += st.rpc_count;
        st.batches = share(merged_stats.batches) - batches_assigned;
        batches_assigned += st.batches;
        st.hedges = share(merged_stats.hedges) - hedges_assigned;
        hedges_assigned += st.hedges;
        // Wins are a sub-population of the backups: apportion them by
        // cumulative share of the hedges assigned so far (not by item
        // share), so a rider can never report a win without a hedge and
        // the sum over riders still telescopes to the merged total.
        st.hedge_wins =
            merged_stats.hedges == 0
                ? 0
                : static_cast<int>(std::llround(
                      static_cast<double>(merged_stats.hedge_wins) *
                      static_cast<double>(hedges_assigned) /
                      static_cast<double>(merged_stats.hedges))) -
                      hedge_wins_assigned;
        hedge_wins_assigned += st.hedge_wins;
        const double frac = static_cast<double>(part.request.items) /
                            static_cast<double>(batch.merged.items);
        st.cpu_ops_ns *= frac;
        st.cpu_serde_ns *= frac;
        st.cpu_service_ns *= frac;
        st.hedge_wasted_cpu_ns *= frac;
        st.main_op_ns *= frac;
        for (auto &v : st.shard_op_ns)
            v *= frac;
        for (auto &v : st.shard_net_op_ns)
            v *= frac;
        stats_.push_back(st);
    }
    // The sim no longer references the merged request once its stats are
    // delivered; drop the dead payload so long replays hold memory only
    // for batches genuinely in flight.
    batch.parts.clear();
    batch.parts.shrink_to_fit();
    batch.merged = workload::Request{};
}

void
DynamicBatcher::flush()
{
    if (!pending_.empty())
        flushNow();
}

std::vector<core::RequestStats>
DynamicBatcher::takeStats()
{
    std::vector<core::RequestStats> out;
    out.swap(stats_);
    return out;
}

double
DynamicBatcher::meanCoalesced() const
{
    if (batches_injected_ == 0)
        return 1.0;
    return static_cast<double>(coalesced_total_) /
           static_cast<double>(batches_injected_);
}

std::vector<core::RequestStats>
runBatchedOpenLoop(core::ServingSimulation &sim,
                   const std::vector<workload::Request> &requests,
                   double qps, const BatcherConfig &config,
                   std::uint64_t arrival_seed)
{
    if (!(qps > 0.0) || !std::isfinite(qps))
        throw std::invalid_argument("runBatchedOpenLoop: qps must be finite "
                                    "and > 0, got " + std::to_string(qps));
    DynamicBatcher batcher(sim, config);

    // Chained like ServingSimulation::replayOpenLoop: offer i, when it
    // fires, schedules offer i+1 under its reserved tie-break number, and
    // the last offer schedules the end-of-stream drain under the number
    // after it (same timestamp, later number: it runs after every offer).
    struct Chain
    {
        DynamicBatcher *batcher;
        sim::Engine *engine;
        const std::vector<workload::Request> *requests;
        stats::Rng arrivals;
        double qps;
        std::uint64_t first_seq;
        sim::SimTime t;

        void
        schedule(std::size_t i)
        {
            if (i == requests->size()) {
                engine->scheduleAt(t, sim::kEvDriver, first_seq + i,
                                   [this] { batcher->flush(); });
                return;
            }
            t += static_cast<sim::Duration>(arrivals.exponential(qps) *
                                            static_cast<double>(sim::kSecond));
            engine->scheduleAt(t, sim::kEvDriver, first_seq + i, [this, i] {
                schedule(i + 1);
                batcher->offer((*requests)[i]);
            });
        }
    };
    sim::Engine &engine = sim.engine();
    Chain chain{&batcher,          &engine,
                &requests,         stats::Rng(arrival_seed),
                qps,               engine.reserveSeq(requests.size() + 1),
                engine.now()};
    chain.schedule(0);
    engine.run();
    sim.checkDrained();
    sim.takeResults(); // merged-level stats; superseded by per-part stats
    return batcher.takeStats();
}

} // namespace dri::sched
