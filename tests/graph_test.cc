/**
 * @file
 * Tests for the oracle's operator-graph substrate: workspace blob
 * semantics, operator execution, SplitIndices partition properties, net
 * construction, and the sequential executor.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "oracle/executor.h"
#include "oracle/net.h"
#include "oracle/operators.h"
#include "oracle/workspace.h"

namespace {

using namespace dri::graph;
using dri::model::OpClass;
using dri::tensor::Tensor;
using dri::tensor::VirtualEmbeddingTable;

TEST(Workspace, IndexListBlob)
{
    Workspace ws;
    auto &ids = ws.createIndexList("ids");
    ids.indices = {1, 2, 3};
    ids.lengths = {2, 1};
    EXPECT_EQ(ws.indexListBlob("ids").totalLookups(), 3);
    EXPECT_EQ(ws.indexListBlob("ids").segments(), 2);
}

TEST(Workspace, GenericBlobCopy)
{
    Workspace a, b;
    a.createTensor("t") = Tensor::fromVector({5});
    b.setBlob("t", a.blob("t"));
    EXPECT_FLOAT_EQ(b.tensorBlob("t").at(0), 5.0f);
}

TEST(Workspace, TableRegistry)
{
    Workspace ws;
    auto table = std::make_shared<VirtualEmbeddingTable>(100, 4, 1, 32);
    ws.addTable("tab", table);
    EXPECT_EQ(ws.table("tab").dim(), 4);
}

TEST(Operators, FcReluSigmoidPipeline)
{
    Workspace ws;
    ws.createTensor("in") = Tensor::fromMatrix(1, 2, {1, -1});
    ws.createTensor("w") = Tensor::fromMatrix(1, 2, {2, 2});
    ws.createTensor("b") = Tensor::fromVector({0});
    ExecContext ctx{ws, nullptr};

    FullyConnectedOp fc("in", "w", "b", "h");
    fc.run(ctx);
    EXPECT_FLOAT_EQ(ws.tensorBlob("h").at(0), 0.0f);

    ws.tensorBlob("h").at(0) = -3.0f;
    ReluOp relu("h");
    relu.run(ctx);
    EXPECT_FLOAT_EQ(ws.tensorBlob("h").at(0), 0.0f);

    SigmoidOp sig("h");
    sig.run(ctx);
    EXPECT_FLOAT_EQ(ws.tensorBlob("h").at(0), 0.5f);
}

TEST(Operators, SlsOpPoolsTable)
{
    Workspace ws;
    auto table = std::make_shared<VirtualEmbeddingTable>(1000, 4, 9, 64);
    ws.addTable("tab", table);
    auto &ids = ws.createIndexList("ids");
    ids.indices = {5, 6};
    ids.lengths = {2};
    ExecContext ctx{ws, nullptr};
    SparseLengthsSumOp sls("tab", "ids", "emb");
    sls.run(ctx);
    EXPECT_EQ(ws.tensorBlob("emb").rows(), 1);
    EXPECT_EQ(ws.tensorBlob("emb").cols(), 4);
    EXPECT_EQ(sls.tableName(), "tab");
    EXPECT_EQ(sls.opClass(), OpClass::Sparse);
}

TEST(Operators, SplitIndicesPartitionsByModulus)
{
    Workspace ws;
    auto &ids = ws.createIndexList("ids");
    ids.indices = {0, 1, 2, 3, 4, 5, 6};
    ids.lengths = {4, 3};
    ExecContext ctx{ws, nullptr};
    SplitIndicesOp split("ids", {"p0", "p1", "p2"});
    split.run(ctx);

    std::set<std::int64_t> seen;
    std::int64_t total = 0;
    for (int w = 0; w < 3; ++w) {
        const auto &part =
            ws.indexListBlob("p" + std::to_string(w));
        EXPECT_EQ(part.lengths.size(), 2u); // segment structure preserved
        for (auto idx : part.indices) {
            EXPECT_EQ(idx % 3, w);
            seen.insert(idx);
        }
        total += part.totalLookups();
        // Per-segment lengths consistent with index counts.
        std::int64_t len_sum = 0;
        for (auto l : part.lengths)
            len_sum += l;
        EXPECT_EQ(len_sum, part.totalLookups());
    }
    EXPECT_EQ(total, 7);
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Operators, SplitIndicesRejectsNegativeIndex)
{
    Workspace ws;
    auto &ids = ws.createIndexList("ids");
    ids.indices = {4, -3, 5};
    ids.lengths = {3};
    ExecContext ctx{ws, nullptr};
    SplitIndicesOp split("ids", {"p0", "p1"});
    EXPECT_THROW(split.run(ctx), std::out_of_range);
}

TEST(Operators, SplitIndicesRejectsZeroWays)
{
    Workspace ws;
    auto &ids = ws.createIndexList("ids");
    ids.indices = {1, 2};
    ids.lengths = {2};
    ExecContext ctx{ws, nullptr};
    SplitIndicesOp split("ids", {});
    EXPECT_THROW(split.run(ctx), std::invalid_argument);
}

TEST(Operators, SumCombinesPartials)
{
    Workspace ws;
    ws.createTensor("a") = Tensor::fromVector({1, 2});
    ws.createTensor("b") = Tensor::fromVector({3, 4});
    ExecContext ctx{ws, nullptr};
    SumOp sum({"a", "b"}, "out");
    sum.run(ctx);
    EXPECT_FLOAT_EQ(ws.tensorBlob("out").at(1), 6.0f);
}

TEST(Operators, CloneProducesEqualBehaviour)
{
    Workspace ws;
    ws.createTensor("in") = Tensor::fromMatrix(1, 2, {1, 2});
    ws.createTensor("w") = Tensor::fromMatrix(1, 2, {1, 1});
    ws.createTensor("b") = Tensor::fromVector({0});
    ExecContext ctx{ws, nullptr};

    FullyConnectedOp fc("in", "w", "b", "out");
    auto copy = fc.clone();
    copy->run(ctx);
    EXPECT_FLOAT_EQ(ws.tensorBlob("out").at(0), 3.0f);
    EXPECT_EQ(copy->type(), "FC");
}

TEST(Net, CountsOpsByClass)
{
    NetDef net("n");
    net.emplace<ReluOp>("x");
    net.emplace<SparseLengthsSumOp>("tabA", "ids", "e1");
    net.emplace<SparseLengthsSumOp>("tabB", "ids2", "e2");
    EXPECT_EQ(net.size(), 3u);
    EXPECT_EQ(net.countClass(OpClass::Sparse), 2u);
}

TEST(Executor, RunsSequentiallyWithObserver)
{
    Workspace ws;
    ws.createTensor("x") = Tensor::fromVector({-1.0f});
    NetDef net("n");
    net.emplace<ReluOp>("x");
    net.emplace<SigmoidOp>("x");

    std::vector<std::string> types;
    Executor exec;
    exec.run(net, ws,
             [&](const Operator &op) { types.push_back(op.type()); });
    EXPECT_EQ(types, (std::vector<std::string>{"Relu", "Sigmoid"}));
    EXPECT_FLOAT_EQ(ws.tensorBlob("x").at(0), 0.5f);
}

} // namespace
