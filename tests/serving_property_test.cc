/**
 * @file
 * Property sweeps over the serving simulation: invariants that must hold
 * for EVERY (model, strategy, shard count) combination — accounting
 * identities, conservation laws, fan-out formulas, and trace consistency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/serving.h"
#include "core/strategies.h"
#include "dc/platform.h"
#include "model/generators.h"
#include "obs/span_tracer.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/** (model index, strategy, shard count). */
using Config = std::tuple<int, core::Strategy, int>;

model::ModelSpec
specFor(int model_idx)
{
    switch (model_idx) {
      case 0:
        return model::makeDrm1();
      case 1:
        return model::makeDrm2();
      default:
        return model::makeDrm3();
    }
}

core::ShardingPlan
planFor(const model::ModelSpec &spec, core::Strategy strategy, int shards)
{
    workload::RequestGenerator gen(spec, workload::GeneratorConfig{1, 0.0});
    switch (strategy) {
      case core::Strategy::Singular:
        return core::makeSingular(spec);
      case core::Strategy::OneShard:
        return core::makeOneShard(spec);
      case core::Strategy::CapacityBalanced:
        return core::makeCapacityBalanced(spec, shards);
      case core::Strategy::LoadBalanced:
        return core::makeLoadBalanced(spec, shards,
                                      gen.estimatePoolingFactors(200));
      case core::Strategy::Nsbp:
        return core::makeNsbp(spec, shards,
                              dc::scLarge().usableModelBytes());
    }
    return core::makeSingular(spec);
}

class ServingPropertyTest : public ::testing::TestWithParam<Config>
{
  protected:
    void
    SetUp() override
    {
        spec_ = specFor(std::get<0>(GetParam()));
        plan_ = planFor(spec_, std::get<1>(GetParam()),
                        std::get<2>(GetParam()));
        workload::RequestGenerator gen(
            spec_, workload::GeneratorConfig{0xabc, 0.0});
        requests_ = gen.generate(40);
    }

    model::ModelSpec spec_;
    core::ShardingPlan plan_;
    std::vector<workload::Request> requests_;
};

TEST_P(ServingPropertyTest, AccountingIdentities)
{
    core::ServingSimulation sim(spec_, plan_, core::ServingConfig{});
    const auto stats = sim.replaySerial(requests_);
    ASSERT_EQ(stats.size(), requests_.size());

    for (const auto &s : stats) {
        // Latency stack sums exactly to E2E.
        EXPECT_EQ(s.queue_wait + s.lat_serde + s.lat_service +
                      s.lat_net_overhead + s.lat_embedded + s.lat_dense,
                  s.e2e);
        // All buckets non-negative.
        EXPECT_GE(s.lat_dense, 0);
        EXPECT_GE(s.lat_embedded, 0);
        EXPECT_GE(s.emb_network, 0);
        EXPECT_GE(s.emb_queue, 0);
        EXPECT_GT(s.cpuTotalNs(), 0.0);
        // Completion after arrival, monotone replay.
        EXPECT_GT(s.completion, s.arrival);
        // Sparse shard op CPU only on existing shards.
        EXPECT_EQ(s.shard_op_ns.size(),
                  static_cast<std::size_t>(
                      std::max(plan_.numShards(), 1)));
        // Per-shard-by-net decomposition sums to the per-shard totals.
        double by_net = 0.0, by_shard = 0.0;
        for (double v : s.shard_net_op_ns)
            by_net += v;
        for (double v : s.shard_op_ns)
            by_shard += v;
        EXPECT_NEAR(by_net, by_shard, 1.0);
    }
}

TEST_P(ServingPropertyTest, RpcFanoutFormula)
{
    core::ServingSimulation sim(spec_, plan_, core::ServingConfig{});
    const auto stats = sim.replaySerial(requests_);
    std::size_t groups = 0;
    for (const auto &net : core::fanoutGroups(spec_, plan_))
        groups += net.size();
    for (const auto &s : stats) {
        if (plan_.isSingular()) {
            EXPECT_EQ(s.rpc_count, 0);
        } else {
            // At most one RPC per (group, batch); zero-lookup groups are
            // skipped, so <= is the invariant.
            EXPECT_LE(s.rpc_count,
                      static_cast<int>(groups) * s.batches);
            EXPECT_GT(s.rpc_count, 0);
        }
    }
}

TEST_P(ServingPropertyTest, DeterministicReplay)
{
    core::ServingSimulation a(spec_, plan_, core::ServingConfig{});
    core::ServingSimulation b(spec_, plan_, core::ServingConfig{});
    const auto sa = a.replaySerial(requests_);
    const auto sb = b.replaySerial(requests_);
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].e2e, sb[i].e2e);
        EXPECT_EQ(sa[i].rpc_count, sb[i].rpc_count);
        EXPECT_DOUBLE_EQ(sa[i].cpuTotalNs(), sb[i].cpuTotalNs());
    }
}

TEST_P(ServingPropertyTest, TraceSpansStayWithinRequestWindow)
{
    obs::SpanTracer tracer;
    core::ServingConfig config;
    config.tracer = &tracer;
    core::ServingSimulation sim(spec_, plan_, config);
    const auto stats = sim.replaySerial(
        std::vector<workload::Request>(requests_.begin(),
                                       requests_.begin() + 5));
    const auto spans = tracer.spans();
    ASSERT_FALSE(spans.empty());
    for (const auto &s : stats) {
        for (const auto &span : spans) {
            // Cancelled/loser debris may outlive its request.
            if (span.request_id != s.id || span.cancelled())
                continue;
            EXPECT_FALSE(span.open());
            EXPECT_GE(span.begin, s.arrival);
            EXPECT_LE(span.end, s.completion);
            EXPECT_LE(span.begin, span.end);
        }
        // The paper's Section IV-B identity, read off the span tree: an
        // RpcAttempt runs from dispatch to response arrival at the main
        // shard, its RemoteQueue and RemoteCompute children are the
        // remote E2E, and network = outstanding - remote E2E >= 0.
        sim::Duration slowest = 0;
        int attempts = 0;
        for (const auto &att : spans) {
            if (att.request_id != s.id ||
                att.kind != obs::SpanKind::RpcAttempt || att.cancelled())
                continue;
            ++attempts;
            sim::Duration remote = 0;
            for (const auto &child : spans) {
                if (child.parent != att.id)
                    continue;
                EXPECT_GE(child.begin, att.begin);
                EXPECT_LE(child.end, att.end);
                if (child.kind == obs::SpanKind::RemoteQueue ||
                    child.kind == obs::SpanKind::RemoteCompute)
                    remote += child.duration();
            }
            EXPECT_GT(remote, 0);
            EXPECT_GE(att.duration() - remote, 0);
            slowest = std::max(slowest, att.duration());
        }
        EXPECT_EQ(attempts, s.rpc_count);
        // RequestStats::emb_* split the slowest RPC, so they sum to its
        // outstanding time.
        if (attempts > 0) {
            EXPECT_EQ(s.emb_queue + s.emb_serde + s.emb_service +
                          s.emb_net_overhead + s.emb_sparse_op +
                          s.emb_network,
                      slowest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ServingPropertyTest,
    ::testing::Values(
        // DRM1 across every strategy.
        Config{0, core::Strategy::Singular, 0},
        Config{0, core::Strategy::OneShard, 1},
        Config{0, core::Strategy::CapacityBalanced, 2},
        Config{0, core::Strategy::CapacityBalanced, 8},
        Config{0, core::Strategy::LoadBalanced, 4},
        Config{0, core::Strategy::Nsbp, 2},
        Config{0, core::Strategy::Nsbp, 8},
        // DRM2 spot checks.
        Config{1, core::Strategy::Singular, 0},
        Config{1, core::Strategy::LoadBalanced, 8},
        Config{1, core::Strategy::Nsbp, 4},
        // DRM3 with row-split dominant table.
        Config{2, core::Strategy::Singular, 0},
        Config{2, core::Strategy::OneShard, 1},
        Config{2, core::Strategy::Nsbp, 4},
        Config{2, core::Strategy::Nsbp, 8}));

} // namespace
