/**
 * @file
 * Request-level span vocabulary for the observability layer.
 *
 * The paper explains latency with cross-layer traces; src/obs carries
 * them the way a production tracing system would: a *tree* of spans per
 * request — every lifecycle stage from admission through queue wait,
 * batch coalescing, per-shard RPC attempts (primary and hedge,
 * wire/remote-queue/remote-compute), result-cache probes and the
 * response merge — with parent links, so a request's latency can be
 * walked as a critical path instead of summed as buckets (the ASCII
 * Fig. 3 timeline in obs/render.h draws its leaves). Spans are recorded in simulated time; the tracer is a
 * pure observer (it never touches the RNG or the event queue), which is
 * what makes "tracing on vs off leaves RequestStats byte-identical" a
 * testable contract rather than a hope.
 */
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace dri::obs {

/**
 * Span handle; 0 = none. A tracer handle packs the span's tree-local
 * index + 1 with its tree's arena slot and recycling generation (see
 * obs/span_tracer.h), which is what lets late debris calls against an
 * already-sealed tree resolve to a safe no-op instead of corrupting the
 * slot's new tenant. In a flattened span vector (SpanTracer::spans(),
 * a RetainedTrace) ids are plain index + 1 instead.
 */
using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

/** Shard id used for main-shard spans. */
constexpr int kMainShard = -1;

/** Sentinel end time of a still-open span. */
constexpr sim::SimTime kOpenEnd = -1;

/** Lifecycle stage a span covers. */
enum class SpanKind : std::uint8_t
{
    Request,           //!< root: arrival -> completion (exactly 1/request)
    BatchCoalesce,     //!< waiting in the dynamic batcher before injection
    QueueWait,         //!< waiting for a worker core (main or child-local)
    Deserialize,       //!< request handler + request deserialization
    NetPhase,          //!< one net of the request (nets run sequentially)
    BatchExec,         //!< one batch of one net (batches run in parallel)
    DenseBottom,       //!< net overhead + bottom-dense operator execution
    InlineSparse,      //!< singular-deployment SLS inside the batch
    DenseTop,          //!< top-dense operator execution
    ClientSerde,       //!< fan-out request serialization + dispatch
    ResultCacheProbe,  //!< pooled-result cache probe (instant; hit/miss)
    EmbeddedWait,      //!< batch dispatch -> last sparse response at main
    RpcOp,             //!< one logical sparse RPC (possibly hedged)
    RpcAttempt,        //!< one attempt of an RpcOp (primary or hedge)
    WireOut,           //!< request payload on the wire
    RemoteQueue,       //!< waiting for a sparse-replica worker core
    RemoteCompute,     //!< remote handler + serde + net overhead + SLS
    WireBack,          //!< response payload on the wire
    ResponseDeserde,   //!< sparse-response deserialization at main
    ResponseSerialize, //!< final ranking-response serialization
};

constexpr std::size_t kSpanKindCount = 20;

/** Short lower-case kind name (trace export, tables). */
const char *spanKindName(SpanKind kind);

/**
 * Span flags. Cancelled/Loser spans are the asynchronous debris of a
 * decided race (hedge loser, mid-flight shed, poisoned fan-out): they
 * are required to CLOSE like every other span, but they may legitimately
 * outlive their parent (the request finishes on the winner's path while
 * the loser is still draining), so the conservation checker exempts
 * them from end-containment — and only them.
 */
enum SpanFlags : std::uint8_t
{
    kFlagNone = 0,
    kFlagHedge = 1,     //!< attempt was a hedge backup
    kFlagCancelled = 2, //!< cancelled before/during execution
    kFlagLoser = 4,     //!< executed to completion but lost the race
    kFlagShed = 8,      //!< request was shed (root span)
    kFlagCacheHit = 16, //!< result-cache probe hit
    kFlagFault = 32,    //!< attempt hit a dead/partitioned/unresolvable target
};

/** One recorded span. */
struct SpanRecord
{
    std::uint64_t request_id = 0;
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    SpanKind kind = SpanKind::Request;
    std::uint8_t flags = kFlagNone;
    std::int16_t shard = kMainShard;
    std::int16_t net = -1;
    std::int16_t batch = -1;
    sim::SimTime begin = 0;
    sim::SimTime end = kOpenEnd;

    bool open() const { return end == kOpenEnd; }
    bool cancelled() const { return (flags & (kFlagCancelled | kFlagLoser)) != 0; }
    sim::Duration duration() const { return open() ? 0 : end - begin; }
};

/**
 * The paper's latency-decomposition buckets (queueing vs compute vs
 * network vs serde vs wait), applied per critical-path segment instead
 * of per aggregate.
 */
enum class PathBucket : std::uint8_t
{
    Queue,   //!< main-shard or remote queue wait
    Compute, //!< dense/sparse operator + remote busy execution
    Serde,   //!< (de)serialization + dispatch
    Network, //!< payload on the wire
    Wait,    //!< coalescing / waiting on asynchronous children
    Other,   //!< handler boilerplate and uncovered residue
};

constexpr std::size_t kPathBucketCount = 6;

/** Short lower-case bucket name. */
const char *pathBucketName(PathBucket bucket);

/** Decomposition bucket a span kind's self-time is attributed to. */
PathBucket bucketOf(SpanKind kind);

} // namespace dri::obs
