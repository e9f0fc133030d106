/**
 * @file
 * Per-RPC records for the paper's Section IV-B latency attribution.
 *
 * The serving engine appends one record per sparse-shard RPC response
 * as it completes; analyses read them after the run. Request-level spans
 * live in src/obs (SpanTracer), which is the only span model.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dri::trace {

/**
 * Summary of one sparse-shard RPC, recorded by the serving engine. The
 * paper's latency attribution (Section IV-B) uses the slowest asynchronous
 * sparse request per main-shard request; these records make that analysis
 * direct.
 */
struct RpcRecord
{
    std::uint64_t request_id = 0;
    int shard_id = 0;
    int net_id = 0;
    int batch_id = 0;

    sim::SimTime dispatched = 0;     //!< client issued the request
    sim::SimTime completed = 0;      //!< response visible at main shard

    // Remote-side components (CPU unless noted).
    sim::Duration remote_queue_ns = 0;   //!< wall: waiting for a core
    sim::Duration remote_serde_ns = 0;
    sim::Duration remote_service_ns = 0;
    sim::Duration remote_net_overhead_ns = 0;
    sim::Duration remote_sparse_op_ns = 0;

    /** Total outstanding time observed at the main shard. */
    sim::Duration outstanding() const { return completed - dispatched; }

    /** E2E service time on the sparse shard (queue + CPU components). */
    sim::Duration remoteE2e() const
    {
        return remote_queue_ns + remote_serde_ns + remote_service_ns +
               remote_net_overhead_ns + remote_sparse_op_ns;
    }

    /**
     * Network latency, measured exactly as the paper does: outstanding
     * request time at the main shard minus E2E time at the sparse shard
     * (absorbs clock skew between servers).
     */
    sim::Duration networkLatency() const
    {
        return outstanding() - remoteE2e();
    }
};

/** Append-only store of RPC records for one experiment run. */
class TraceCollector
{
  public:
    void addRpc(const RpcRecord &record) { rpcs_.push_back(record); }

    const std::vector<RpcRecord> &rpcs() const { return rpcs_; }

  private:
    std::vector<RpcRecord> rpcs_;
};

} // namespace dri::trace
