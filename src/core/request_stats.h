/**
 * @file
 * Per-request measurements produced by the serving simulation. The fields
 * mirror exactly the quantities the paper's cross-layer tracing extracts:
 * E2E latency and its stack (Fig. 8a), the bounding sparse shard's embedded
 * breakdown (Fig. 8b, attributed per Section IV-B), aggregate CPU time by
 * stack layer (Fig. 9), and per-shard operator CPU (Figs. 10-12, 15).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dri::core {

/** Why admission control rejected a request (None = it was served). */
enum class ShedReason : std::uint8_t
{
    None = 0,
    /** Main-shard admission queue exceeded its configured cap on arrival. */
    QueueFull,
    /** Deadline already blown while waiting for a worker core. */
    DeadlineExceeded,
    /**
     * A sparse RPC exhausted its failover retries against dead,
     * partitioned, or unresolvable replicas (the injected-fault layer);
     * the request is answered by the lower-quality fallback exactly like
     * an admission shed.
     */
    UpstreamFailure,
};

/** Short lower-case reason name for tables and JSON rows. */
inline const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None:
        return "none";
    case ShedReason::QueueFull:
        return "queue-full";
    case ShedReason::DeadlineExceeded:
        return "deadline";
    case ShedReason::UpstreamFailure:
        return "upstream-failure";
    }
    return "unknown";
}

/** Everything measured about one served request. */
struct RequestStats
{
    std::uint64_t id = 0;
    std::int64_t items = 0;
    int batches = 0;
    int rpc_count = 0;

    // ---- Hedged sparse RPCs (tail mitigation; zero when hedging is off).
    /** Backup requests launched for this request's sparse RPCs. */
    int hedges = 0;
    /** Backups that answered before their primary (tail saves). */
    int hedge_wins = 0;
    /**
     * Busy time a losing attempt consumed before the winner aborted it
     * (duplicate work), summed over this request's sparse RPCs.
     */
    double hedge_wasted_cpu_ns = 0.0;

    // ---- Pooled-result cache (zero when the result cache is off).
    /** Sparse fan-out requests served from the main-shard result cache. */
    int result_cache_hits = 0;
    /** Fan-out requests that probed the cache and went to the wire. */
    int result_cache_misses = 0;
    /** Response bytes served locally instead of fetched over RPC. */
    std::int64_t result_cache_bytes_saved = 0;

    sim::SimTime arrival = 0;
    sim::SimTime completion = 0;
    sim::Duration e2e = 0;

    /**
     * Load shedding: a shed request never executed (its latency buckets
     * are meaningless beyond queue_wait) and would be answered by the
     * serving tier's lower-quality fallback (Section II). Latency
     * summaries must exclude shed requests; shedRate() accounts them.
     */
    ShedReason shed_reason = ShedReason::None;
    bool shed() const { return shed_reason != ShedReason::None; }

    /**
     * Time spent coalescing in the dynamic batcher before injection
     * (zero outside sched-driven replays). Included in e2e.
     */
    sim::Duration batch_wait = 0;
    /** Original requests merged into the injected request (>= 1). */
    int coalesced = 1;

    // ---- E2E latency stack at the main shard (Fig. 8a). The buckets sum
    //      (with queue_wait) to e2e; lat_dense is the critical-path
    //      residual after the measured buckets.
    sim::Duration queue_wait = 0;
    sim::Duration lat_serde = 0;        //!< request deserde + response serde
    sim::Duration lat_service = 0;      //!< handler boilerplate
    sim::Duration lat_net_overhead = 0; //!< framework scheduling
    sim::Duration lat_embedded = 0;     //!< sparse phase (wait or inline)
    sim::Duration lat_dense = 0;        //!< dense operator critical path

    // ---- Bounding-shard embedded-portion breakdown (Fig. 8b): the slowest
    //      asynchronous sparse request of this request. For singular runs
    //      the embedded portion is pure sparse-operator time.
    sim::Duration emb_sparse_op = 0;
    sim::Duration emb_serde = 0;
    sim::Duration emb_service = 0;
    sim::Duration emb_net_overhead = 0;
    sim::Duration emb_network = 0;
    sim::Duration emb_queue = 0;

    // ---- CPU time by layer, aggregated over all shards (Fig. 9).
    double cpu_ops_ns = 0.0;     //!< dense + sparse operator execution
    double cpu_serde_ns = 0.0;   //!< request/response (de)serialization
    double cpu_service_ns = 0.0; //!< handler + net overhead + dispatch

    double cpuTotalNs() const
    {
        return cpu_ops_ns + cpu_serde_ns + cpu_service_ns;
    }

    // ---- Per sparse shard operator CPU (Figs. 10-12, 15).
    std::vector<double> shard_op_ns;
    /** Indexed shard * num_nets + net. */
    std::vector<double> shard_net_op_ns;
    double main_op_ns = 0.0;
};

} // namespace dri::core
