/**
 * @file
 * Thrift-like RPC service costs.
 *
 * Every shard — main and sparse — runs a full service handler plus an ML
 * framework instance (Section III-A2). The measurable costs the paper's
 * tracing attributes to this stack are: request/response serialization
 * ("RPC Ser/De", proportional to payload bytes), fixed handler boilerplate
 * ("RPC Service Function"), framework net-scheduling overhead ("Caffe2 Net
 * Overhead"), and the client-side cost of issuing asynchronous RPC ops.
 * Every service instance shares the same calibrated coefficients.
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/time.h"

namespace dri::rpc {

/** Fixed handler boilerplate per served request (CPU). */
inline constexpr sim::Duration kHandlerFixedNs = 40 * sim::kMicrosecond;
/** Serialization/deserialization CPU cost per payload byte. */
inline constexpr double kSerdeNsPerByte = 0.08;
/** Framework scheduling overhead per net execution (CPU). */
inline constexpr sim::Duration kNetOverheadNs = 30 * sim::kMicrosecond;
/** Extra framework bookkeeping per asynchronous op in a net (CPU). */
inline constexpr sim::Duration kAsyncOpOverheadNs = 4 * sim::kMicrosecond;
/** Client-side CPU to construct and dispatch one RPC request. */
inline constexpr sim::Duration kClientDispatchNs = 6 * sim::kMicrosecond;

/** CPU to (de)serialize a payload of the given size. */
inline sim::Duration
serdeNs(std::int64_t bytes)
{
    return static_cast<sim::Duration>(
        std::llround(kSerdeNsPerByte * static_cast<double>(bytes)));
}

/** Framework overhead for executing a net with the given async ops. */
inline sim::Duration
netOverheadNs(std::int64_t async_ops)
{
    return kNetOverheadNs + async_ops * kAsyncOpOverheadNs;
}

} // namespace dri::rpc
