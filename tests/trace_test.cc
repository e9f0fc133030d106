/**
 * @file
 * Tests for the per-RPC trace records: the paper's network-latency
 * attribution identity (Section IV-B).
 */
#include <gtest/gtest.h>

#include "trace/collector.h"

namespace {

using namespace dri::trace;

TEST(RpcRecord, NetworkLatencyIdentity)
{
    // Network latency = outstanding at main shard minus remote E2E —
    // exactly the paper's clock-skew-free measurement.
    RpcRecord rec;
    rec.dispatched = 1000;
    rec.completed = 2000;
    rec.remote_queue_ns = 50;
    rec.remote_serde_ns = 100;
    rec.remote_service_ns = 150;
    rec.remote_net_overhead_ns = 100;
    rec.remote_sparse_op_ns = 200;
    EXPECT_EQ(rec.outstanding(), 1000);
    EXPECT_EQ(rec.remoteE2e(), 600);
    EXPECT_EQ(rec.networkLatency(), 400);
}

} // namespace
