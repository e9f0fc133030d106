/**
 * @file
 * Hedged (backup) requests against sparse-shard stragglers.
 *
 * The paper's scale-out finding is that a request's latency is bounded by
 * its *slowest* sparse RPC (Section IV-B attributes the embedded portion to
 * the bounding shard), so the P99 of a fan-out deployment is set by replica
 * stragglers — a transiently deep queue on one replica delays every request
 * routed there. The classic tail-at-scale mitigation is the hedged request:
 * when a primary RPC has been outstanding longer than a quantile of recent
 * RPC latencies, issue a backup to a *different* replica and take whichever
 * response returns first, cancelling the loser. The hedge deadline is a
 * quantile of one sliding window of client-observed RPC latencies shared
 * by every shard, so the policy self-tunes as load shifts; a budget caps
 * the fraction of RPCs that may be hedged so duplicate work stays bounded
 * at low load. The budget is the only thing that suppresses a backup once
 * its deadline expires.
 *
 * Fault masking. The same mechanism is the serving tier's first line of
 * defense against replica CRASHES, not just stragglers: an attempt sent
 * to a dead replica never completes, so it blows through the hedge
 * deadline like any straggler and the backup — resolved against a
 * different replica — carries the request. This window matters because
 * discovery health updates lag the fault (ServingSimulation's
 * PerturbationConfig::discovery_lag_ns): between the crash and the
 * directory reacting, the balancer keeps routing primaries at the dead
 * server, and hedging is the only thing standing between those requests
 * and an rpc_timeout_ns stall followed by a failover retry. The chaos
 * suite (fleet/fault_schedule.h, examples/chaos_study) measures exactly
 * this: with hedging on, a replica crash is masked to a fraction of the
 * blast radius the unhedged fleet eats.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dri::rpc {

/** When and how aggressively to hedge sparse-shard RPCs. */
struct HedgeConfig
{
    /** Master switch; everything below is inert while false. */
    bool enabled = false;
    /**
     * Hedge deadline quantile: a backup launches when the primary has been
     * outstanding longer than this quantile of recently observed RPC
     * latencies (dispatch to response at the client).
     */
    double quantile = 0.95;
    /**
     * Observed completions required before any hedge may launch; at most
     * kHedgeWindow, the most the deadline's window ever holds.
     */
    std::size_t min_samples = 64;
    /**
     * Hedge budget: backups may be at most this fraction of primary
     * dispatches (the tail-at-scale "hedge no more than ~5%" rule).
     * Bounds wasted duplicate work when the latency distribution is tight
     * and the quantile deadline sits near the median.
     */
    double max_hedge_fraction = 0.05;
};

/** Aggregate hedging outcome counters of one simulation run. */
struct HedgeStats
{
    std::uint64_t primary_rpcs = 0; //!< primaries dispatched
    std::uint64_t hedges = 0;       //!< backups launched
    std::uint64_t wins = 0;         //!< backup answered first
    /** Backup aborted mid-service by the winning primary. */
    std::uint64_t losses = 0;
    /** Backup cancelled before executing, or aborted by a shed. */
    std::uint64_t cancelled = 0;
    /**
     * Hedge deadlines that expired but launched no backup (budget
     * exhausted) — makes under-hedging visible instead of silently
     * shrinking the hedge rate.
     */
    std::uint64_t suppressed = 0;
    /** Replica-pool busy time consumed by losing attempts. */
    double wasted_busy_ns = 0.0;
    /** Total replica-pool busy time (denominator for wastedFraction). */
    double total_busy_ns = 0.0;

    /** Backups per primary dispatch. */
    double hedgeRate() const
    {
        return primary_rpcs == 0
                   ? 0.0
                   : static_cast<double>(hedges) /
                         static_cast<double>(primary_rpcs);
    }

    /** Fraction of sparse-tier busy time that was duplicate (wasted) work. */
    double wastedFraction() const
    {
        return total_busy_ns <= 0.0 ? 0.0 : wasted_busy_ns / total_busy_ns;
    }
};

/**
 * Samples in the hedge deadline's sliding window. HedgeConfig::min_samples
 * above it could never be met (count() saturates here), so the serving
 * core rejects such a config.
 */
inline constexpr std::size_t kHedgeWindow = 512;

/**
 * Sliding-window tracker of one fixed quantile `q` of recent RPC
 * latencies: the hedge deadline. value() is the exact nearest-rank order
 * statistic of the last `window` samples — rank k = ⌊q·(n−1)+0.5⌋ of the
 * n in the window, identical to a full sort's — but is kept without
 * sorting the window. The window is split by rank: the low set holds
 * the k smallest samples unsorted (a removal swaps the last entry into
 * the hole, found through its ring slot's back-pointer), and the high
 * set holds the other n−k sorted descending, so value() is the high
 * set's last entry. At the hedge quantile the high set is the ~5% tail
 * (27 of 512 samples), so insertions and removals there shift a few
 * dozen entries at most. The one linear step, a scan for the low set's
 * maximum, runs only when the low set must give a sample back: an
 * insertion into it meeting an eviction from the high set. Equal
 * samples are interchangeable, so ties cannot change the value.
 */
class LatencyTracker
{
  public:
    /** `window`: samples kept; `q`: tracked quantile, clamped to [0, 1]. */
    LatencyTracker(std::size_t window, double q);

    /** Record one observed RPC latency, evicting the oldest when full. */
    void add(sim::Duration latency_ns);

    /** The window's q-quantile (nearest rank); 0 while it is empty. */
    sim::Duration
    value() const
    {
        return high_.empty() ? 0 : high_.back().value;
    }

    /** Samples currently in the window. */
    std::size_t count() const { return ring_.size(); }

    /** Lifetime samples observed (monotone; count() saturates at window). */
    std::uint64_t observed() const { return observed_; }

  private:
    static constexpr std::uint32_t kInHigh = 0xffffffffu;

    /** One window sample in arrival order. */
    struct Slot
    {
        sim::Duration value = 0;
        std::uint32_t low = kInHigh; //!< index in the low set, or kInHigh
    };

    /** A high-set sample and the ring slot it came from. */
    struct High
    {
        sim::Duration value = 0;
        std::uint32_t slot = 0;
    };

    void pushLow(sim::Duration value, std::uint32_t slot);
    void removeLow(std::uint32_t at);

    std::size_t window_;
    double q_;
    std::size_t next_ = 0; //!< ring write cursor once the window is full
    std::uint64_t observed_ = 0;
    std::vector<Slot> ring_;
    std::vector<sim::Duration> low_values_; //!< the k smallest, unsorted
    std::vector<std::uint32_t> low_slots_;  //!< ring slot of each
    std::vector<High> high_;                //!< the rest, descending
};

} // namespace dri::rpc
