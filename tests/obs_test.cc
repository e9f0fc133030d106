/**
 * @file
 * Unit tests for the observability layer (src/obs): span tracer
 * semantics (including the zero-allocation-when-disabled contract),
 * critical-path extraction on a hand-built span tree, conservation
 * checking, Chrome trace export sanity, the Fig. 3 ASCII timeline, and
 * the metrics registry's edge cases (duplicate registration, kind
 * clashes, histogram bucket boundaries and the sub_bucket_bits bound,
 * snapshot determinism).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/chrome_trace.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/render.h"
#include "obs/span_tracer.h"
#include "obs/timeseries.h"

namespace {

using namespace dri;
using obs::SpanKind;

// ---------------------------------------------------------------------------
// SpanTracer
// ---------------------------------------------------------------------------

TEST(SpanTracer, DisabledTracerPerformsZeroAllocations)
{
    obs::SpanTracer tracer(/*enabled=*/false);
    const auto root = tracer.begin(1, SpanKind::Request, obs::kNoSpan, 0);
    EXPECT_EQ(root, obs::kNoSpan);
    // Every other call must degrade to a no-op on the kNoSpan handle.
    tracer.end(root, 100);
    const auto rec =
        tracer.record(1, SpanKind::QueueWait, root, 0, 50);
    EXPECT_EQ(rec, obs::kNoSpan);
    // The contract tests rely on: a counter, not a timing heuristic.
    EXPECT_EQ(tracer.allocations(), 0u);
    EXPECT_TRUE(tracer.spans().empty());
    EXPECT_EQ(tracer.openCount(), 0u);
}

TEST(SpanTracer, BeginEndLifecycle)
{
    obs::SpanTracer tracer;
    const auto root = tracer.begin(7, SpanKind::Request, obs::kNoSpan, 10);
    ASSERT_NE(root, obs::kNoSpan);
    EXPECT_EQ(tracer.openCount(), 1u);

    const auto child =
        tracer.begin(7, SpanKind::QueueWait, root, 10, /*shard=*/2);
    EXPECT_EQ(tracer.openCount(), 2u);
    tracer.end(child, 30);
    EXPECT_EQ(tracer.openCount(), 1u);
    // Double-end is a no-op, not a corruption.
    tracer.end(child, 99);
    EXPECT_EQ(tracer.openCount(), 1u);
    tracer.end(root, 50, obs::kFlagShed);
    EXPECT_EQ(tracer.openCount(), 0u);

    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    const auto &r = spans[0];
    const auto &c = spans[1];
    EXPECT_EQ(r.request_id, 7u);
    EXPECT_EQ(r.begin, 10);
    EXPECT_EQ(r.end, 50);
    EXPECT_EQ(r.flags, obs::kFlagShed);
    EXPECT_EQ(c.parent, r.id);
    EXPECT_EQ(c.shard, 2);
    EXPECT_EQ(c.end, 30);
    EXPECT_GT(tracer.allocations(), 0u);
}

/**
 * Span coordinates are int16 in storage: values outside that range throw
 * instead of wrapping, and nothing is recorded for the rejected span.
 */
TEST(SpanTracer, RejectsCoordinatesOutsideInt16)
{
    obs::SpanTracer tracer;
    EXPECT_THROW(tracer.begin(1, SpanKind::Request, obs::kNoSpan, 0,
                              /*shard=*/32768),
                 std::out_of_range);
    EXPECT_EQ(tracer.openCount(), 0u);
    EXPECT_EQ(tracer.sampler(), nullptr);
    const auto root = tracer.begin(1, SpanKind::Request, obs::kNoSpan, 0,
                                   /*shard=*/-32768, /*net=*/32767);
    ASSERT_NE(root, obs::kNoSpan);
    EXPECT_THROW(tracer.begin(1, SpanKind::BatchExec, root, 0, 0, 0,
                              /*batch=*/70000),
                 std::out_of_range);
    EXPECT_THROW(tracer.record(1, SpanKind::QueueWait, root, 0, 5, 0,
                               /*net=*/-32769),
                 std::out_of_range);
    EXPECT_EQ(tracer.openCount(), 1u);
    tracer.end(root, 10);
    EXPECT_EQ(tracer.openCount(), 0u);
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].shard, -32768);
    EXPECT_EQ(spans[0].net, 32767);
    EXPECT_EQ(tracer.allocations(), 1u);
}

/**
 * A tree is sealed once its root and every span in it have closed; a
 * child begun under a sealed root is late debris: dropped, counted, and
 * never shown.
 */
TEST(SpanTracer, ChildOfASealedRootIsDroppedAndCounted)
{
    obs::SpanTracer tracer;
    const auto root =
        tracer.record(3, SpanKind::Request, obs::kNoSpan, 0, 100);
    ASSERT_EQ(tracer.spans().size(), 1u);
    EXPECT_EQ(tracer.record(3, SpanKind::QueueWait, root, 10, 20),
              obs::kNoSpan);
    ASSERT_NE(tracer.sampler(), nullptr);
    EXPECT_EQ(tracer.sampler()->stats().stale_span_drops, 1u);
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].kind, SpanKind::Request);
    EXPECT_EQ(tracer.allocations(), 1u);
    EXPECT_EQ(tracer.openCount(), 0u);
}

/**
 * A sampler can be attached (or detached) until the first span; after
 * that the open trees' handles point into the current store, so a swap
 * throws and leaves the tracer working.
 */
TEST(SpanTracer, SetSamplerAfterTheFirstSpanThrows)
{
    obs::TraceSampler sampler;
    obs::SpanTracer tracer;
    tracer.setSampler(&sampler);
    tracer.setSampler(nullptr);
    const auto root = tracer.begin(1, SpanKind::Request, obs::kNoSpan, 0);
    EXPECT_THROW(tracer.setSampler(&sampler), std::logic_error);
    EXPECT_THROW(tracer.setSampler(nullptr), std::logic_error);
    tracer.end(root, 10);
    EXPECT_EQ(tracer.spans().size(), 1u);
    EXPECT_EQ(sampler.stats().roots_closed, 0u);
}

// ---------------------------------------------------------------------------
// Critical path + conservation on a hand-built span tree
// ---------------------------------------------------------------------------

/**
 * One request, one sequential lifecycle, one remote RPC chain (with
 * @p hedge_loser, plus a flagged hedge-loser RpcAttempt [35,300] under
 * the RpcOp that outlives the request):
 *
 *   Request [0,100]
 *     QueueWait [0,10]            queue
 *     Deserialize [10,20]         serde
 *     NetPhase [20,90]
 *       BatchExec [20,90]
 *         DenseBottom [20,30]     compute
 *         EmbeddedWait [30,80]
 *           RpcOp [30,80]
 *             RpcAttempt [30,80]
 *               WireOut [30,40]       network
 *               RemoteQueue [40,50]   queue
 *               RemoteCompute [50,70] compute
 *               WireBack [70,80]      network
 *         DenseTop [80,90]        compute
 *     ResponseSerialize [90,100]  serde
 *
 * The last-finisher walk must partition [0,100] exactly into
 * queue=20, serde=20, compute=40, network=20.
 */
obs::SpanTracer
buildCanonicalTree(bool hedge_loser = false)
{
    obs::SpanTracer t;
    const auto root = t.begin(1, SpanKind::Request, obs::kNoSpan, 0);
    t.record(1, SpanKind::QueueWait, root, 0, 10);
    t.record(1, SpanKind::Deserialize, root, 10, 20);
    const auto net = t.record(1, SpanKind::NetPhase, root, 20, 90);
    const auto batch = t.record(1, SpanKind::BatchExec, net, 20, 90);
    t.record(1, SpanKind::DenseBottom, batch, 20, 30);
    const auto wait = t.record(1, SpanKind::EmbeddedWait, batch, 30, 80);
    const auto op = t.record(1, SpanKind::RpcOp, wait, 30, 80);
    const auto att = t.record(1, SpanKind::RpcAttempt, op, 30, 80);
    t.record(1, SpanKind::WireOut, att, 30, 40);
    t.record(1, SpanKind::RemoteQueue, att, 40, 50);
    t.record(1, SpanKind::RemoteCompute, att, 50, 70);
    t.record(1, SpanKind::WireBack, att, 70, 80);
    t.record(1, SpanKind::DenseTop, batch, 80, 90);
    t.record(1, SpanKind::ResponseSerialize, root, 90, 100);
    if (hedge_loser)
        t.record(1, SpanKind::RpcAttempt, op, 35, 300, /*shard=*/3, -1, -1,
                 obs::kFlagHedge | obs::kFlagLoser);
    t.end(root, 100);
    return t;
}

TEST(CriticalPath, SegmentsPartitionRootExactly)
{
    const auto tracer = buildCanonicalTree();
    const auto paths = obs::criticalPaths(tracer.spans());
    ASSERT_EQ(paths.size(), 1u);
    const auto &p = paths[0];
    EXPECT_EQ(p.request_id, 1u);
    EXPECT_EQ(p.total, 100);

    // Segments tile [0, 100] with no gaps or overlaps, in time order.
    ASSERT_FALSE(p.segments.empty());
    sim::SimTime cursor = 0;
    sim::Duration sum = 0;
    for (const auto &seg : p.segments) {
        EXPECT_EQ(seg.begin, cursor);
        EXPECT_GE(seg.end, seg.begin);
        cursor = seg.end;
        sum += seg.duration();
    }
    EXPECT_EQ(cursor, 100);
    EXPECT_EQ(sum, p.total);

    using B = obs::PathBucket;
    EXPECT_EQ(p.bucket_ns[static_cast<std::size_t>(B::Queue)], 20);
    EXPECT_EQ(p.bucket_ns[static_cast<std::size_t>(B::Serde)], 20);
    EXPECT_EQ(p.bucket_ns[static_cast<std::size_t>(B::Compute)], 40);
    EXPECT_EQ(p.bucket_ns[static_cast<std::size_t>(B::Network)], 20);
    EXPECT_EQ(p.dominant(), B::Compute);

    sim::Duration bucket_sum = 0;
    for (std::size_t b = 0; b < obs::kPathBucketCount; ++b)
        bucket_sum += p.bucket_ns[b];
    EXPECT_EQ(bucket_sum, p.total);

    const auto profile = obs::profilePaths(paths);
    EXPECT_EQ(profile.requests, 1u);
    EXPECT_EQ(profile.total_ns, 100);
    EXPECT_DOUBLE_EQ(profile.bucketShare(B::Compute), 0.4);
}

TEST(CriticalPath, CancelledAndLoserSpansAreExcluded)
{
    // A hedge loser that outlived the request: closed, flagged, longer
    // than everything else. It must not hijack the last-finisher walk.
    const auto tracer = buildCanonicalTree(/*hedge_loser=*/true);
    const auto paths = obs::criticalPaths(tracer.spans());
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].total, 100);
    using B = obs::PathBucket;
    EXPECT_EQ(paths[0].bucket_ns[static_cast<std::size_t>(B::Compute)], 40);
}

TEST(Conservation, CleanTreePasses)
{
    const auto tracer = buildCanonicalTree();
    const auto rep = obs::checkConservation(tracer.spans());
    EXPECT_EQ(rep.total_spans, 15u);
    EXPECT_EQ(rep.root_spans, 1u);
    EXPECT_EQ(rep.open_spans, 0u);
    EXPECT_EQ(rep.nesting_violations, 0u);
    EXPECT_TRUE(rep.ok(1));
    EXPECT_FALSE(rep.ok(2));
}

TEST(Conservation, DetectsOpenSpans)
{
    // A tracer never shows a tree with an open span, so build one.
    obs::SpanRecord root;
    root.request_id = 1;
    root.id = 1;
    root.end = 100;
    obs::SpanRecord child = root;
    child.id = 2;
    child.parent = root.id;
    child.kind = SpanKind::QueueWait;
    child.end = obs::kOpenEnd; // never ended
    const auto rep = obs::checkConservation({root, child});
    EXPECT_EQ(rep.open_spans, 1u);
    EXPECT_FALSE(rep.ok(1));
}

TEST(Conservation, DetectsNestingViolations)
{
    obs::SpanTracer t;
    const auto root = t.begin(1, SpanKind::Request, obs::kNoSpan, 10);
    // Child escapes its parent on both sides without a cancel flag.
    t.record(1, SpanKind::QueueWait, root, 0, 120);
    t.end(root, 100);
    const auto rep = obs::checkConservation(t.spans());
    EXPECT_GT(rep.nesting_violations, 0u);
    EXPECT_FALSE(rep.ok(1));

    // The same overhang IS legal for cancelled/loser debris.
    obs::SpanTracer t2;
    const auto r2 = t2.begin(1, SpanKind::Request, obs::kNoSpan, 10);
    t2.record(1, SpanKind::RpcAttempt, r2, 10, 120, obs::kMainShard, -1,
              -1, obs::kFlagCancelled);
    t2.end(r2, 100);
    const auto rep2 = obs::checkConservation(t2.spans());
    EXPECT_EQ(rep2.nesting_violations, 0u);
    EXPECT_EQ(rep2.cancelled_spans, 1u);
    EXPECT_TRUE(rep2.ok(1));
}

TEST(ChromeTrace, EmitsCompleteEventsForClosedSpans)
{
    auto spans = buildCanonicalTree().spans();
    obs::SpanRecord open; // an open root: skipped
    open.request_id = 2;
    open.id = spans.size() + 1;
    open.begin = 500;
    spans.push_back(open);
    const std::string json = obs::chromeTraceJson(spans);
    EXPECT_EQ(json.front(), '[');
    // 15 closed spans -> 15 "X" events; the open root is skipped.
    std::size_t events = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
        ++events;
        ++pos;
    }
    EXPECT_EQ(events, 15u);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
    EXPECT_NE(json.find("main-shard"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fig. 3 timeline rendering
// ---------------------------------------------------------------------------

TEST(Render, ProducesTimelineWithShards)
{
    obs::SpanTracer t;
    const auto root = t.begin(42, SpanKind::Request, obs::kNoSpan, 0);
    const auto batch = t.record(42, SpanKind::BatchExec, root, 0, 1000,
                                obs::kMainShard, 0, 0);
    t.record(42, SpanKind::DenseBottom, batch, 0, 200, obs::kMainShard, 0, 0);
    const auto att =
        t.record(42, SpanKind::RpcAttempt, batch, 200, 800, 2, 0, 0);
    t.record(42, SpanKind::WireOut, att, 200, 300, 2, 0, 0);
    t.record(42, SpanKind::RemoteCompute, att, 300, 700, 2, 0, 0);
    t.record(42, SpanKind::WireBack, att, 700, 800, 2, 0, 0);
    t.record(42, SpanKind::DenseTop, batch, 800, 1000, obs::kMainShard, 0, 0);
    t.end(root, 1000);
    t.record(7, SpanKind::Request, obs::kNoSpan, 0, 5000); // other request

    const std::string out = obs::renderRequestTrace(t.spans(), 42, 60);
    EXPECT_NE(out.find("request 42  span=1000ns"), std::string::npos);
    EXPECT_LT(out.find("main shard"), out.find("sparse shard 2"));

    // Leaves only: one (net 0, batch 0) lane per shard, and no lane for
    // the request-level root, whose interval its children cover.
    std::istringstream lines(out);
    std::string line;
    std::size_t lanes = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("net", 0) != 0)
            continue;
        ++lanes;
        EXPECT_EQ(line.rfind("net0/b0 |", 0), 0u) << line;
        EXPECT_NE(line.find('C'), std::string::npos) << line;
        // The RpcAttempt (wait bucket) is a parent, so it is not drawn.
        EXPECT_EQ(line.find('.'), std::string::npos) << line;
    }
    EXPECT_EQ(lanes, 2u);
    EXPECT_NE(out.find('~'), std::string::npos);
}

TEST(Render, EmptyRequestExplains)
{
    const std::string out = obs::renderRequestTrace({}, 1);
    EXPECT_NE(out.find("no spans"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, DuplicateRegistrationReturnsSameHandle)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("requests");
    obs::Counter &b = reg.counter("requests");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    b.inc(4);
    EXPECT_EQ(a.value(), 7);
    EXPECT_EQ(reg.size(), 1u);

    obs::Histogram &h1 = reg.histogram("lat");
    obs::Histogram &h2 = reg.histogram("lat");
    EXPECT_EQ(&h1, &h2);
    // Handles are stable across later registrations (deque storage).
    for (int i = 0; i < 100; ++i)
        reg.gauge("g" + std::to_string(i));
    EXPECT_EQ(&reg.counter("requests"), &a);
    EXPECT_EQ(&reg.histogram("lat"), &h1);
}

TEST(MetricsRegistry, KindClashThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
    reg.gauge("y");
    EXPECT_THROW(reg.counter("y"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotsAreDeterministic)
{
    const auto drive = [](obs::MetricsRegistry &reg) {
        reg.counter("served").inc(42);
        reg.gauge("qps").set(1500.5);
        auto &h = reg.histogram("wait_us");
        for (int i = 1; i <= 1000; ++i)
            h.observe(i);
        reg.takeSnapshot(60.0);
        reg.counter("served").inc(8);
        reg.takeSnapshot(120.0);
    };
    obs::MetricsRegistry a, b;
    drive(a);
    drive(b);
    ASSERT_EQ(a.snapshots().size(), 2u);
    ASSERT_EQ(a.snapshots().size(), b.snapshots().size());
    for (std::size_t i = 0; i < a.snapshots().size(); ++i) {
        const auto &sa = a.snapshots()[i];
        const auto &sb = b.snapshots()[i];
        EXPECT_EQ(sa.t, sb.t);
        ASSERT_EQ(sa.values.size(), sb.values.size());
        for (std::size_t j = 0; j < sa.values.size(); ++j) {
            EXPECT_EQ(sa.values[j].first, sb.values[j].first);
            EXPECT_EQ(sa.values[j].second, sb.values[j].second);
        }
    }
    // Registration order is snapshot order — counter first.
    EXPECT_EQ(a.snapshots()[0].values[0].first, "served");
    EXPECT_EQ(a.snapshots()[0].values[0].second, 42.0);
    EXPECT_EQ(a.snapshots()[1].values[0].second, 50.0);
}

TEST(Histogram, BucketBoundariesRoundTrip)
{
    const obs::Histogram h(/*sub_bucket_bits=*/2); // sub = 4
    // Values below 2^bits land in exact unit buckets.
    for (std::int64_t v = 0; v < 4; ++v) {
        EXPECT_EQ(h.bucketIndex(v), static_cast<std::size_t>(v));
        EXPECT_EQ(h.bucketLowerBound(static_cast<std::size_t>(v)), v);
    }
    // First log range: [4,8) in unit buckets of width 1 << 0.
    EXPECT_EQ(h.bucketIndex(4), 4u);
    EXPECT_EQ(h.bucketIndex(7), 7u);
    // Second log range: [8,16) in buckets of width 2.
    EXPECT_EQ(h.bucketIndex(8), 8u);
    EXPECT_EQ(h.bucketIndex(9), 8u);
    EXPECT_EQ(h.bucketIndex(10), 9u);
    EXPECT_EQ(h.bucketLowerBound(8), 8);
    EXPECT_EQ(h.bucketLowerBound(9), 10);
    // Negative observations clamp to zero.
    EXPECT_EQ(h.bucketIndex(-5), 0u);

    // Round-trip property across several decades: the lower bound maps
    // back to its own bucket and never exceeds the value.
    for (std::int64_t v : {0LL, 1LL, 3LL, 4LL, 5LL, 15LL, 16LL, 17LL,
                           1000LL, 123456LL, 1LL << 40}) {
        const std::size_t idx = h.bucketIndex(v);
        const std::int64_t lo = h.bucketLowerBound(idx);
        EXPECT_LE(lo, v) << v;
        EXPECT_EQ(h.bucketIndex(lo), idx) << v;
    }
}

TEST(Histogram, QuantilesBoundedRelativeError)
{
    obs::Histogram h(/*sub_bucket_bits=*/5);
    for (std::int64_t v = 1; v <= 100000; ++v)
        h.observe(v);
    EXPECT_EQ(h.count(), 100000u);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 100000);
    EXPECT_DOUBLE_EQ(h.mean(), 50000.5);
    // Log-linear bucketing guarantees <= 2^-5 relative error downward.
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        const auto est = static_cast<double>(h.quantile(q));
        const double exact = q * 100000.0;
        EXPECT_LE(est, exact + 1.0) << q;
        EXPECT_GE(est, exact * (1.0 - 1.0 / 32.0) - 1.0) << q;
    }
    EXPECT_EQ(h.quantile(0.0), 1);
    // p100 reports the max's bucket lower bound, clamped into the
    // observed range — within one bucket width of the true max.
    EXPECT_LE(h.quantile(1.0), 100000);
    EXPECT_GE(h.quantile(1.0), 100000 - (100000 >> 5));
}

TEST(Histogram, ValueAtQuantileInterpolatesWithinTheBucket)
{
    obs::Histogram h(/*sub_bucket_bits=*/5);
    for (std::int64_t v = 1; v <= 100000; ++v)
        h.observe(v);
    // The interpolated inverse is bounded by the same relative error as
    // the bucketed quantile, but two-sided: within one bucket width
    // (2^-5 of the value) of the exact order statistic.
    for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const double est = h.valueAtQuantile(q);
        const double exact = q * 100000.0;
        EXPECT_NEAR(est, exact, exact / 32.0 + 1.0) << q;
        // Never below the bucketed (lower-bound) quantile's bucket.
        EXPECT_GE(est + 1e-9,
                  static_cast<double>(h.quantile(q)) * (1.0 - 1.0 / 32.0))
            << q;
    }
    // Monotone in q.
    double prev = h.valueAtQuantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = h.valueAtQuantile(q);
        EXPECT_GE(cur, prev) << q;
        prev = cur;
    }
    // Clamped to the observed extremes at the ends.
    EXPECT_GE(h.valueAtQuantile(0.0), 1.0);
    EXPECT_LE(h.valueAtQuantile(1.0), 100000.0);
}

TEST(Histogram, ValueAtQuantileEdgeCases)
{
    obs::Histogram empty(5);
    EXPECT_DOUBLE_EQ(empty.valueAtQuantile(0.5), 0.0);

    // Single value: every quantile is that value (clamping pins the
    // interpolation to the [min, max] = [v, v] range).
    obs::Histogram one(5);
    one.observe(777);
    for (const double q : {0.0, 0.5, 1.0})
        EXPECT_DOUBLE_EQ(one.valueAtQuantile(q), 777.0) << q;

    // Two spread values: interpolation never leaves [min, max] even
    // with empty buckets between them, and out-of-range q clamps.
    obs::Histogram two(5);
    two.observe(10);
    two.observe(1000);
    EXPECT_GE(two.valueAtQuantile(-1.0), 10.0);
    EXPECT_LE(two.valueAtQuantile(2.0), 1000.0);
    EXPECT_DOUBLE_EQ(two.valueAtQuantile(0.0), 10.0);
}

TEST(Histogram, MergeEqualsWholeStream)
{
    obs::Histogram whole(5), left(5), right(5);
    for (std::int64_t v = 0; v < 5000; ++v) {
        const std::int64_t x = (v * 2654435761LL) % 1000003;
        whole.observe(x);
        (v % 2 == 0 ? left : right).observe(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.sum(), whole.sum());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(left.quantile(q), whole.quantile(q)) << q;

    obs::Histogram other_bits(3);
    EXPECT_THROW(left.merge(other_bits), std::logic_error);
}

// sub_bucket_bits sizes a shift (1 << bits): past the documented bound
// the constructor throws instead of shifting out of range, on every
// path that builds a histogram.
TEST(Histogram, RejectsSubBucketBitsAboveTheBound)
{
    const unsigned max_bits = obs::Histogram::kMaxSubBucketBits;
    obs::Histogram widest(max_bits);
    widest.observe(std::int64_t{1} << 62);
    EXPECT_EQ(widest.count(), 1u);
    for (const unsigned bits : {max_bits + 1, 63u, 64u, 1000u})
        EXPECT_THROW(obs::Histogram{bits}, std::invalid_argument) << bits;

    obs::MetricsRegistry reg;
    EXPECT_THROW(reg.histogram("lat", 63), std::invalid_argument);
    // The rejected registration leaves nothing behind: the name is free
    // and snapshots see no half-built entry.
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.histogram("lat").subBucketBits(), 5u);
    reg.takeSnapshot(1.0);

    EXPECT_THROW(obs::RollingHistogram({10.0, 5}, 63), std::invalid_argument);
}

// bucketCount reads one bucket; the counts over the used range add up
// to count(), and buckets past the highest one used read 0.
TEST(Histogram, BucketCountsSumToTheObservationCount)
{
    obs::Histogram h(/*sub_bucket_bits=*/0); // octave buckets
    for (const std::int64_t v : {0, 1, 2, 3, 4, 7, 8, 1000})
        h.observe(v);
    EXPECT_EQ(h.bucketCount(h.bucketIndex(0)), 1u);
    EXPECT_EQ(h.bucketCount(h.bucketIndex(2)), 2u); // [2, 4)
    EXPECT_EQ(h.bucketCount(h.bucketIndex(4)), 2u); // [4, 8)
    EXPECT_EQ(h.bucketCount(h.bucketIndex(1000)), 1u);
    std::uint64_t sum = 0;
    for (std::size_t b = 0; b <= h.bucketIndex(h.max()); ++b)
        sum += h.bucketCount(b);
    EXPECT_EQ(sum, h.count());
    EXPECT_EQ(h.bucketCount(h.bucketIndex(h.max()) + 1), 0u);
    EXPECT_EQ(obs::Histogram{}.bucketCount(0), 0u);
}

} // namespace
