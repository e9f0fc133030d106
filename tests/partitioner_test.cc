/**
 * @file
 * Tests for the model partitioner and functional distributed execution:
 * the distributed model (RPC ops + shard nets + row-split pieces) must
 * compute bit-identical outputs to the singular model — the correctness
 * contract of capacity-driven sharding — and its RPCs and row splits must
 * agree with the fanoutGroups() and shardOfRow() routing serving uses.
 */
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "core/strategies.h"
#include "dc/platform.h"
#include "model/generators.h"
#include "oracle/dlrm_builder.h"
#include "oracle/executor.h"
#include "oracle/kernels.h"
#include "oracle/local_executor.h"
#include "oracle/partitioner.h"
#include "stats/rng.h"
#include "workload/request_generator.h"

namespace {

using namespace dri;

/** Small spec with two nets, several tables, and one "huge" table. */
model::ModelSpec
smallSpec()
{
    model::ModelSpec spec;
    spec.name = "small";
    spec.mean_items = 8.0;
    spec.items_min = 2.0;
    spec.items_max = 32.0;
    spec.default_batch_size = 4;
    spec.nets = {{0, "net1", 1000.0, 100.0}, {1, "net2", 1000.0, 100.0}};
    for (int i = 0; i < 8; ++i) {
        model::TableSpec t;
        t.id = i;
        t.name = "small_t" + std::to_string(i);
        t.net_id = i < 4 ? 0 : 1;
        t.rows = (i == 5) ? 4000000 : 2000; // table 5 is the huge one
        t.dim = 8;
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

/** Populate request inputs into a workspace. */
void
fillInputs(const model::ModelSpec &spec, graph::Workspace &ws,
           std::int64_t items, std::uint64_t seed)
{
    stats::Rng rng(seed);
    auto &dense = ws.createTensor("dense_input");
    dense = tensor::Tensor(items, 4);
    for (std::int64_t i = 0; i < dense.numel(); ++i)
        dense.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (const auto &t : spec.tables) {
        auto &ids = ws.createIndexList(model::idsBlobName(t));
        for (std::int64_t item = 0; item < items; ++item) {
            const auto n = rng.uniformInt(0, 4);
            ids.lengths.push_back(static_cast<std::int32_t>(n));
            for (std::int64_t k = 0; k < n; ++k)
                ids.indices.push_back(rng.uniformInt(0, t.rows - 1));
        }
    }
}

/** Run the singular model; returns the final output tensor. */
tensor::Tensor
runSingular(const model::BuiltModel &built, std::int64_t items,
            std::uint64_t seed)
{
    graph::Workspace ws;
    built.prepareWorkspace(ws);
    fillInputs(*built.spec, ws, items, seed);
    graph::Executor exec;
    for (const auto &net : built.nets)
        exec.run(net, ws);
    return ws.tensorBlob(built.outputBlob());
}

/** Run the distributed model through the LocalRemoteExecutor. */
tensor::Tensor
runDistributed(const model::BuiltModel &built,
               const core::ShardingPlan &plan, std::int64_t items,
               std::uint64_t seed)
{
    const auto dm = core::partitionModel(built, plan);
    core::LocalRemoteExecutor remote(dm);
    graph::Workspace ws;
    built.prepareWorkspace(ws);
    fillInputs(*built.spec, ws, items, seed);
    graph::Executor exec(&remote);
    for (const auto &net : dm.main_nets)
        exec.run(net, ws);
    return ws.tensorBlob(built.outputBlob());
}

TEST(Partitioner, SingularPlanClonesNets)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto dm = core::partitionModel(built, core::makeSingular(spec));
    EXPECT_EQ(dm.main_nets.size(), built.nets.size());
    EXPECT_TRUE(dm.shard_nets.empty());
    for (std::size_t i = 0; i < dm.main_nets.size(); ++i)
        EXPECT_EQ(dm.main_nets[i].size(), built.nets[i].size());
}

TEST(Partitioner, MovesAllSlsOpsToShards)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeCapacityBalanced(spec, 3);
    const auto dm = core::partitionModel(built, plan);

    std::size_t main_sls = 0, shard_sls = 0, rpc_ops = 0;
    for (const auto &net : dm.main_nets) {
        main_sls += net.countClass(model::OpClass::Sparse);
        rpc_ops += net.countClass(model::OpClass::Rpc);
    }
    for (const auto &kv : dm.shard_nets)
        for (const auto &net : kv.second)
            shard_sls += net.countClass(model::OpClass::Sparse);
    EXPECT_EQ(main_sls, 0u);
    EXPECT_EQ(shard_sls, spec.tables.size());
    EXPECT_GT(rpc_ops, 0u);
}

TEST(Partitioner, ShardNetsAreStateless)
{
    // Every shard-net input is a request blob (ids), never an
    // intermediate of another net — the paper's stateless-shard rule.
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    const auto dm = core::partitionModel(built, plan);
    for (const auto &kv : dm.shard_nets)
        for (const auto &net : kv.second)
            for (const auto &in : net.externalInputs())
                EXPECT_EQ(in.rfind("ids_", 0), 0u) << in;
}

/** Property: distributed output == singular output for every strategy. */
class EquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EquivalenceTest, CapacityBalancedMatchesSingular)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto singular = runSingular(built, 6, 0x111);
    const auto plan = core::makeCapacityBalanced(spec, GetParam());
    const auto dist = runDistributed(built, plan, 6, 0x111);
    EXPECT_LT(tensor::l1Distance(singular, dist), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shards, EquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Equivalence, OneShardMatchesSingular)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    EXPECT_LT(tensor::l1Distance(
                  runSingular(built, 5, 0x7),
                  runDistributed(built, core::makeOneShard(spec), 5, 0x7)),
              1e-5);
}

TEST(Equivalence, RowSplitHugeTableMatchesSingular)
{
    // NSBP with a tiny "server memory" forces the huge table to row-split;
    // partial SLS sums must recombine exactly.
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeNsbp(spec, 5, 8LL * 1024 * 1024);
    bool any_split = false;
    for (const auto &a : plan.assignments())
        any_split = any_split || a.isSplit();
    ASSERT_TRUE(any_split) << "test requires a row-split table";

    EXPECT_LT(tensor::l1Distance(runSingular(built, 7, 0x99),
                                 runDistributed(built, plan, 7, 0x99)),
              1e-5);
}

TEST(Equivalence, ManySeedsAndSizes)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeCapacityBalanced(spec, 3);
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL})
        for (std::int64_t items : {1LL, 4LL, 13LL})
            EXPECT_LT(tensor::l1Distance(
                          runSingular(built, items, seed),
                          runDistributed(built, plan, items, seed)),
                      1e-5)
                << "seed " << seed << " items " << items;
}

TEST(LocalExecutor, CountsCalls)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeCapacityBalanced(spec, 2);
    const auto dm = core::partitionModel(built, plan);
    core::LocalRemoteExecutor remote(dm);

    graph::Workspace ws;
    built.prepareWorkspace(ws);
    fillInputs(spec, ws, 3, 0x5);
    graph::Executor exec(&remote);
    for (const auto &net : dm.main_nets)
        exec.run(net, ws);
    // One call per (shard, net) with tables present.
    std::size_t expected = 0;
    for (const auto &kv : dm.shard_nets)
        expected += kv.second.size();
    EXPECT_EQ(remote.callCount(), expected);
}

TEST(Partitioner, RpcRequestsCarryCorrectShardTargets)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    const auto plan = core::makeCapacityBalanced(spec, 3);
    const auto dm = core::partitionModel(built, plan);
    for (const auto &net : dm.main_nets)
        for (const auto &op : net.ops())
            if (const auto *rpc =
                    dynamic_cast<const graph::RpcRequestOp *>(op.get())) {
                EXPECT_GE(rpc->shardId(), 0);
                EXPECT_LT(rpc->shardId(), 3);
                EXPECT_NE(dm.findShardNet(rpc->shardId(), rpc->remoteNet()),
                          nullptr);
            }
}

TEST(Partitioner, InvalidPlanThrowsInvalidArgument)
{
    const auto spec = smallSpec();
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    // Covers one of the eight tables, then one on a shard past the end.
    const core::ShardingPlan partial("manual", 2, {{0, {0}}});
    std::vector<core::TableAssignment> asg;
    for (int t = 0; t < 8; ++t)
        asg.push_back({t, {t == 3 ? 2 : 0}});
    const core::ShardingPlan out_of_range("manual", 2, asg);
    for (const auto *plan : {&partial, &out_of_range}) {
        try {
            core::partitionModel(built, *plan);
            ADD_FAILURE() << "no throw";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("sharding plan: "),
                      std::string::npos)
                << e.what();
        }
    }
}

/**
 * The serial-sweep plans of one model (26 over DRM1-3), built the way the
 * benches' standardPlans / drm3Plans build them: DRM1 and DRM2 get singular,
 * 1-shard and load-bal / cap-bal / NSBP at 2, 4 and 8 shards; DRM3
 * (one net) gets singular, 1-shard and NSBP at 4 and 8.
 */
std::vector<core::ShardingPlan>
sweepPlans(const model::ModelSpec &spec)
{
    const std::int64_t server = dc::scLarge().usableModelBytes();
    std::vector<core::ShardingPlan> plans{core::makeSingular(spec),
                                          core::makeOneShard(spec)};
    if (spec.nets.size() < 2) {
        for (int n : {4, 8})
            plans.push_back(core::makeNsbp(spec, n, server));
        return plans;
    }
    const auto pooling =
        workload::RequestGenerator(spec, workload::GeneratorConfig{99, 0.0})
            .estimatePoolingFactors(500);
    for (int n : {2, 4, 8})
        plans.push_back(core::makeLoadBalanced(spec, n, pooling));
    for (int n : {2, 4, 8})
        plans.push_back(core::makeCapacityBalanced(spec, n));
    for (int n : {2, 4, 8})
        plans.push_back(core::makeNsbp(spec, n, server));
    return plans;
}

/** Every RpcRequestOp of a net, in emission order. */
std::vector<const graph::RpcRequestOp *>
rpcOps(const graph::NetDef &net)
{
    std::vector<const graph::RpcRequestOp *> out;
    for (const auto &op : net.ops())
        if (const auto *rpc =
                dynamic_cast<const graph::RpcRequestOp *>(op.get()))
            out.push_back(rpc);
    return out;
}

/**
 * Per net, the partitioned model's RPCs are fanoutGroups()'s groups, in
 * order: same shard, and ids / embedding blobs for the whole tables then
 * the pieces; each names a shard net that takes exactly those ids.
 */
void
expectRpcsFollowFanoutGroups(const model::ModelSpec &spec,
                             const core::ShardingPlan &plan)
{
    SCOPED_TRACE(spec.name + " " + plan.label());
    const auto built = model::DlrmBuilder(spec).build();
    const auto dm = core::partitionModel(built, plan);
    const auto fanout = core::fanoutGroups(spec, plan);
    ASSERT_EQ(dm.main_nets.size(), fanout.size());
    for (std::size_t n = 0; n < fanout.size(); ++n) {
        const auto rpcs = rpcOps(dm.main_nets[n]);
        ASSERT_EQ(rpcs.size(), fanout[n].size()) << "net " << n;
        for (std::size_t i = 0; i < rpcs.size(); ++i) {
            const core::FanoutGroup &g = fanout[n][i];
            std::vector<std::string> ids, embs;
            for (int tid : g.whole_tables) {
                const auto &t = spec.tables[static_cast<std::size_t>(tid)];
                ids.push_back(model::idsBlobName(t));
                embs.push_back(model::embBlobName(t));
            }
            for (const auto &piece : g.pieces) {
                const auto &t =
                    spec.tables[static_cast<std::size_t>(piece.table)];
                ids.push_back(core::splitIdsBlobName(t, piece.piece));
                embs.push_back(core::splitEmbBlobName(t, piece.piece));
            }
            EXPECT_EQ(rpcs[i]->shardId(), g.shard);
            EXPECT_EQ(rpcs[i]->inputs(), ids);
            EXPECT_EQ(rpcs[i]->outputs(), embs);
            const auto *remote =
                dm.findShardNet(g.shard, rpcs[i]->remoteNet());
            ASSERT_NE(remote, nullptr);
            EXPECT_EQ(remote->externalInputs(), ids);
        }
    }
}

TEST(FanoutAgreement, PartitionerRpcsAreTheFanoutGroupsOfEverySweepPlan)
{
    std::size_t plans = 0;
    for (const auto &spec :
         {model::makeDrm1(), model::makeDrm2(), model::makeDrm3()})
        for (const auto &plan : sweepPlans(spec)) {
            expectRpcsFollowFanoutGroups(spec, plan);
            ++plans;
        }
    EXPECT_EQ(plans, 26u);
}

/**
 * Run every SplitIndicesOp of the partitioned model on rows spread over
 * the table, and check each row reaches the shard plan.shardOfRow names:
 * the shard of the RPC that carries the row's piece. Returns the number
 * of split ops checked.
 */
int
expectSplitsRouteByShardOfRow(const model::ModelSpec &spec,
                              const core::ShardingPlan &plan)
{
    SCOPED_TRACE(spec.name + " " + plan.label());
    const auto built = model::DlrmBuilder(spec).build();
    const auto dm = core::partitionModel(built, plan);
    std::map<std::string, int> shard_of_blob;
    for (const auto &net : dm.main_nets)
        for (const auto *rpc : rpcOps(net))
            for (const auto &in : rpc->inputs())
                shard_of_blob[in] = rpc->shardId();

    int splits = 0;
    stats::Rng rng(0x5b1);
    for (const auto &net : dm.main_nets)
        for (const auto &op : net.ops()) {
            if (!dynamic_cast<const graph::SplitIndicesOp *>(op.get()))
                continue;
            ++splits;
            const model::TableSpec *table = nullptr;
            for (const auto &t : spec.tables)
                if (model::idsBlobName(t) == op->inputs()[0])
                    table = &t;
            if (!table) {
                ADD_FAILURE() << "unknown split input " << op->inputs()[0];
                continue;
            }
            graph::Workspace ws;
            auto &ids = ws.createIndexList(op->inputs()[0]);
            for (std::int64_t r = 0; r < 64; ++r) {
                ids.indices.push_back(r);
                ids.indices.push_back(table->rows - 1 - r);
                ids.indices.push_back(rng.uniformInt(0, table->rows - 1));
            }
            ids.lengths = {static_cast<std::int32_t>(ids.indices.size())};
            const std::size_t rows = ids.indices.size();
            graph::ExecContext ctx{ws, nullptr};
            op->run(ctx);
            std::size_t routed = 0;
            for (const auto &part : op->outputs()) {
                if (shard_of_blob.count(part) == 0) {
                    ADD_FAILURE() << "no RPC carries " << part;
                    continue;
                }
                for (std::int64_t row : ws.indexListBlob(part).indices) {
                    EXPECT_EQ(plan.shardOfRow(table->id, row),
                              shard_of_blob.at(part))
                        << table->name << " row " << row;
                    ++routed;
                }
            }
            EXPECT_EQ(routed, rows);
        }
    return splits;
}

TEST(FanoutAgreement, SplitIndicesRouteEveryRowToItsShardOfRow)
{
    const auto drm3 = model::makeDrm3();
    const std::int64_t server = dc::scLarge().usableModelBytes();
    for (int n : {4, 8})
        EXPECT_GT(expectSplitsRouteByShardOfRow(
                      drm3, core::makeNsbp(drm3, n, server)),
                  0);
    const auto small = smallSpec();
    EXPECT_GT(expectSplitsRouteByShardOfRow(
                  small, core::makeNsbp(small, 5, 8LL * 1024 * 1024)),
              0);
}

TEST(FanoutAgreement, MixedGroupsListWholeTablesThenPiecesAndStayExact)
{
    // Shard 0 holds whole tables 0 and 6 and pieces of tables 1 and 5;
    // shard 2 holds whole table 3 and pieces of tables 1 and 5.
    const auto spec = smallSpec();
    const core::ShardingPlan plan("manual", 3,
                                  {{0, {0}},
                                   {1, {2, 0}},
                                   {2, {1}},
                                   {3, {2}},
                                   {4, {1}},
                                   {5, {0, 1, 2}},
                                   {6, {0}},
                                   {7, {1}}});
    const auto fanout = core::fanoutGroups(spec, plan);
    ASSERT_EQ(fanout.size(), 2u);
    ASSERT_EQ(fanout[0].size(), 3u);
    const core::FanoutGroup &net0_shard0 = fanout[0][0];
    EXPECT_EQ(net0_shard0.shard, 0);
    EXPECT_EQ(net0_shard0.whole_tables, std::vector<int>{0});
    ASSERT_EQ(net0_shard0.pieces.size(), 1u);
    EXPECT_EQ(net0_shard0.pieces[0].table, 1);
    EXPECT_EQ(net0_shard0.pieces[0].piece, 1);
    EXPECT_EQ(net0_shard0.pieces[0].ways, 2);
    EXPECT_EQ(fanout[0][1].shard, 1);
    EXPECT_EQ(fanout[0][2].shard, 2);
    EXPECT_EQ(fanout[0][2].tableCount(), 2);
    ASSERT_EQ(fanout[1].size(), 3u);
    EXPECT_EQ(fanout[1][0].whole_tables, std::vector<int>{6});
    EXPECT_EQ(fanout[1][0].pieces[0].table, 5);

    expectRpcsFollowFanoutGroups(spec, plan);
    EXPECT_EQ(expectSplitsRouteByShardOfRow(spec, plan), 2);
    const auto built = model::DlrmBuilder(spec, 4, 8, 16, 0x42).build();
    EXPECT_LT(tensor::l1Distance(runSingular(built, 7, 0x3),
                                 runDistributed(built, plan, 7, 0x3)),
              1e-5);
}

} // namespace
