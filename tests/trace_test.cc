/**
 * @file
 * Tests for the per-RPC trace: the paper's network-latency attribution
 * identity (Section IV-B), read off the RpcAttempt spans of a sharded
 * replay.
 */
#include <gtest/gtest.h>

#include "core/serving.h"
#include "core/strategies.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

TEST(RpcTrace, NetworkLatencyIdentity)
{
    // Network latency = outstanding at main shard minus remote E2E —
    // exactly the paper's clock-skew-free measurement. The request's
    // emb_* buckets split its slowest RPC that way.
    const auto spec = model::makeDrm1();
    const auto plan = core::makeCapacityBalanced(spec, 4);
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{7, 0.0});
    const auto requests = gen.generate(5);

    obs::SpanTracer tracer;
    core::ServingConfig config;
    config.tracer = &tracer;
    core::ServingSimulation sim(spec, plan, config);
    const auto stats = sim.replaySerial(requests);
    const auto spans = tracer.spans();

    for (const auto &s : stats) {
        ASSERT_GT(s.rpc_count, 0);
        const obs::SpanRecord *slowest = nullptr;
        for (const auto &span : spans) {
            if (span.request_id != s.id ||
                span.kind != obs::SpanKind::RpcAttempt || span.cancelled())
                continue;
            if (!slowest || span.duration() > slowest->duration())
                slowest = &span;
        }
        ASSERT_NE(slowest, nullptr);

        sim::Duration remote_spans = 0, wire_spans = 0;
        for (const auto &child : spans) {
            if (child.parent != slowest->id)
                continue;
            if (child.kind == obs::SpanKind::RemoteQueue ||
                child.kind == obs::SpanKind::RemoteCompute)
                remote_spans += child.duration();
            if (child.kind == obs::SpanKind::WireOut ||
                child.kind == obs::SpanKind::WireBack)
                wire_spans += child.duration();
        }

        const sim::Duration remote_e2e = s.emb_queue + s.emb_serde +
                                         s.emb_service +
                                         s.emb_net_overhead +
                                         s.emb_sparse_op;
        EXPECT_GT(remote_e2e, 0);
        EXPECT_EQ(remote_e2e, remote_spans);
        EXPECT_GT(s.emb_network, 0);
        EXPECT_EQ(s.emb_network, slowest->duration() - remote_e2e);
        EXPECT_EQ(s.emb_network, wire_spans);
    }
}

} // namespace
