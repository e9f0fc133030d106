/**
 * @file
 * Tests for the model module: the DRM1/DRM2/DRM3 generators must reproduce
 * every attribute the paper publishes (Section V-A), the power-law ladder
 * must honor its constraints, the spec vocabulary (op-class labels, row
 * bytes per precision) must hold, and the oracle's functional DLRM builder
 * must produce runnable nets.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "model/generators.h"
#include "model/model_spec.h"
#include "model/spec_types.h"
#include "oracle/dlrm_builder.h"
#include "oracle/executor.h"

namespace {

using namespace dri::model;

TEST(PowerLawLadder, HonorsLargestAndTotal)
{
    const auto ladder = powerLawLadder(50, 10.0, 100.0);
    EXPECT_EQ(ladder.size(), 50u);
    EXPECT_NEAR(ladder.front(), 10.0, 1e-9);
    double total = 0.0;
    for (double v : ladder) {
        total += v;
        EXPECT_GT(v, 0.0);
    }
    EXPECT_NEAR(total, 100.0, 0.1);
    // Non-increasing.
    for (std::size_t i = 1; i < ladder.size(); ++i)
        EXPECT_LE(ladder[i], ladder[i - 1] + 1e-12);
}

TEST(PowerLawLadder, SingleElement)
{
    const auto ladder = powerLawLadder(1, 7.0, 7.0);
    ASSERT_EQ(ladder.size(), 1u);
    EXPECT_DOUBLE_EQ(ladder[0], 7.0);
}

TEST(PowerLawLadder, NearUniformWhenTotalIsMax)
{
    const auto ladder = powerLawLadder(10, 5.0, 49.9);
    EXPECT_GT(ladder.back(), 4.5);
}

TEST(Drm1, PaperAttributes)
{
    const auto spec = makeDrm1();
    EXPECT_EQ(spec.name, "DRM1");
    EXPECT_EQ(spec.tableCount(), 257u); // 257 embedding tables
    EXPECT_EQ(spec.nets.size(), 2u);    // two nets

    // ~194 GiB total (Table II: 194.05), largest table 3.6 GB.
    const double total_gib =
        static_cast<double>(spec.totalCapacityBytes()) / kGiB;
    EXPECT_NEAR(total_gib, 194.05, 2.0);
    EXPECT_NEAR(static_cast<double>(spec.largestTableBytes()) / 1e9, 3.6,
                0.2);

    // Sparse ops are 9.7% of operator compute.
    EXPECT_NEAR(spec.sparseComputeShare(), 0.097, 1e-9);

    // Net 1 holds ~33.6 GiB but ~94% of pooling (Table II NSBP-2).
    double net1_bytes = 0.0;
    for (const auto *t : spec.tablesForNet(0))
        net1_bytes += static_cast<double>(t->logicalBytes());
    EXPECT_NEAR(net1_bytes / kGiB, 33.58, 1.0);
    EXPECT_EQ(spec.tablesForNet(0).size(), 72u);
    EXPECT_EQ(spec.tablesForNet(1).size(), 185u);

    const double p1 = spec.expectedPoolingPerRequest(0);
    const double p2 = spec.expectedPoolingPerRequest(1);
    EXPECT_NEAR(p1, 126652.7, 1500.0);
    EXPECT_NEAR(p2, 8010.7, 200.0);
    EXPECT_GT(p1 / (p1 + p2), 0.9);

    std::string err;
    EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(Drm2, PaperAttributes)
{
    const auto spec = makeDrm2();
    EXPECT_EQ(spec.tableCount(), 133u);
    EXPECT_EQ(spec.nets.size(), 2u);
    EXPECT_NEAR(static_cast<double>(spec.totalCapacityBytes()) / kGiB,
                138.5, 2.0);
    EXPECT_NEAR(static_cast<double>(spec.largestTableBytes()) / 1e9, 6.7,
                0.3);
    EXPECT_NEAR(spec.sparseComputeShare(), 0.096, 1e-9);
    std::string err;
    EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(Drm3, PaperAttributes)
{
    const auto spec = makeDrm3();
    EXPECT_EQ(spec.tableCount(), 39u);
    EXPECT_EQ(spec.nets.size(), 1u); // single net
    EXPECT_NEAR(static_cast<double>(spec.largestTableBytes()) / 1e9, 178.8,
                0.5);
    EXPECT_NEAR(spec.sparseComputeShare(), 0.031, 1e-9);

    // The dominant table has pooling factor 1 per request.
    const auto &dominant = spec.tables.front();
    EXPECT_TRUE(dominant.pooling_per_request);
    EXPECT_DOUBLE_EQ(dominant.pooling_per_item, 1.0);
    EXPECT_DOUBLE_EQ(dominant.expectedLookups(10000.0), 1.0);

    // The dominant table holds ~89% of capacity.
    EXPECT_GT(static_cast<double>(dominant.logicalBytes()) /
                  static_cast<double>(spec.totalCapacityBytes()),
              0.85);
    std::string err;
    EXPECT_TRUE(spec.validate(&err)) << err;
}

TEST(AllModels, AttributionSumsToOne)
{
    for (const auto &spec : makeAllModels()) {
        double sum = 0.0;
        for (const auto &kv : spec.compute_attribution)
            sum += kv.second;
        EXPECT_NEAR(sum, 1.0, 1e-9) << spec.name;
        // Embedding tables hold >97% of model capacity given a few hundred
        // MB of dense parameters.
        const double dense_bytes = 256e6;
        const double share =
            static_cast<double>(spec.totalCapacityBytes()) /
            (static_cast<double>(spec.totalCapacityBytes()) + dense_bytes);
        EXPECT_GT(share, 0.97) << spec.name;
    }
}

TEST(AllModels, DenseCalibrationMatchesSparseShare)
{
    for (const auto &spec : makeAllModels()) {
        const double sparse_ns =
            spec.expectedPoolingPerRequest() * kNsPerLookup;
        double dense_ns = 0.0;
        for (const auto &net : spec.nets)
            dense_ns += net.dense_ns_per_item * spec.mean_items;
        const double realized = sparse_ns / (sparse_ns + dense_ns);
        EXPECT_NEAR(realized, spec.sparseComputeShare(), 0.002)
            << spec.name;
    }
}

TEST(ModelSpec, ValidateCatchesErrors)
{
    ModelSpec spec = makeDrm3();
    spec.tables[0].net_id = 99;
    std::string err;
    EXPECT_FALSE(spec.validate(&err));
    EXPECT_NE(err.find("unknown net"), std::string::npos);

    ModelSpec spec2 = makeDrm3();
    spec2.compute_attribution[OpClass::Dense] += 0.5;
    EXPECT_FALSE(spec2.validate(&err));
}

TEST(GrowthSeries, OrderOfMagnitudeOverSeries)
{
    const auto series = modelGrowthSeries();
    ASSERT_GE(series.size(), 2u);
    const auto &first = series.front();
    const auto &last = series.back();
    EXPECT_NEAR(last.num_features / first.num_features, 10.0, 0.5);
    EXPECT_GT(last.capacity_gb / first.capacity_gb, 10.0);
    // Monotone growth.
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_GT(series[i].num_features, series[i - 1].num_features);
        EXPECT_GT(series[i].capacity_gb, series[i - 1].capacity_gb);
    }
}

/** A small two-net spec for functional-builder tests. */
ModelSpec
tinySpec()
{
    ModelSpec spec;
    spec.name = "tiny";
    spec.mean_items = 8.0;
    spec.items_min = 2.0;
    spec.items_max = 32.0;
    spec.default_batch_size = 4;
    spec.nets = {{0, "net1", 1000.0, 100.0}, {1, "net2", 1000.0, 100.0}};
    for (int i = 0; i < 6; ++i) {
        TableSpec t;
        t.id = i;
        t.name = "tiny_t" + std::to_string(i);
        t.net_id = i < 3 ? 0 : 1;
        t.rows = 1000;
        t.dim = 8;
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

TEST(DlrmBuilder, BuildsRunnableSingularModel)
{
    const auto spec = tinySpec();
    DlrmBuilder builder(spec, 4, 8, 16, 0x123);
    const auto built = builder.build();
    ASSERT_EQ(built.nets.size(), 2u);
    ASSERT_EQ(built.tables.size(), 6u);

    dri::graph::Workspace ws;
    built.prepareWorkspace(ws);

    // Inputs: dense features + per-table index lists for 3 items.
    ws.createTensor("dense_input") = dri::tensor::Tensor(3, 4);
    ws.tensorBlob("dense_input").fill(0.5f);
    for (const auto &t : spec.tables) {
        auto &ids = ws.createIndexList(idsBlobName(t));
        ids.lengths = {2, 2, 2};
        ids.indices = {1, 2, 3, 4, 5, 6};
    }

    dri::graph::Executor exec;
    for (const auto &net : built.nets)
        exec.run(net, ws);

    const auto &out = ws.tensorBlob(built.outputBlob());
    EXPECT_EQ(out.rows(), 3);
    EXPECT_EQ(out.cols(), 1);
    for (std::int64_t i = 0; i < 3; ++i) {
        EXPECT_GT(out.at(i, 0), 0.0f);  // sigmoid output in (0, 1)
        EXPECT_LT(out.at(i, 0), 1.0f);
    }
}

TEST(DlrmBuilder, DeterministicAcrossBuilds)
{
    const auto spec = tinySpec();
    const auto run_once = [&spec]() {
        DlrmBuilder builder(spec, 4, 8, 16, 0x123);
        const auto built = builder.build();
        dri::graph::Workspace ws;
        built.prepareWorkspace(ws);
        ws.createTensor("dense_input") = dri::tensor::Tensor(1, 4);
        ws.tensorBlob("dense_input").fill(1.0f);
        for (const auto &t : spec.tables) {
            auto &ids = ws.createIndexList(idsBlobName(t));
            ids.lengths = {1};
            ids.indices = {7};
        }
        dri::graph::Executor exec;
        for (const auto &net : built.nets)
            exec.run(net, ws);
        return ws.tensorBlob(built.outputBlob()).at(0, 0);
    };
    EXPECT_FLOAT_EQ(run_once(), run_once());
}

TEST(TableSpec, CompressionChangesLogicalBytes)
{
    TableSpec t;
    t.rows = 1000;
    t.dim = 32;
    const auto fp32 = t.logicalBytes();
    t.precision = Precision::Int8;
    EXPECT_LT(t.logicalBytes(), fp32 / 2);
    t.prune_fraction = 0.5;
    EXPECT_NEAR(static_cast<double>(t.logicalBytes()),
                1000 * 0.5 * 40.0, 50.0);
}

TEST(EmbeddingTable, RowBytesPerPrecision)
{
    EXPECT_EQ(rowBytes(Precision::Fp32, 32), 128);
    EXPECT_EQ(rowBytes(Precision::Int8, 32), 40);
    EXPECT_EQ(rowBytes(Precision::Int4, 32), 24);
    EXPECT_EQ(rowBytes(Precision::Int4, 31), 24); // odd dim rounds up
}

TEST(OpClassNames, AllDistinct)
{
    std::set<std::string> names;
    for (auto c : {OpClass::Dense, OpClass::Sparse, OpClass::Activations,
                   OpClass::FeatureTransform, OpClass::MemoryTransform,
                   OpClass::ScaleClip, OpClass::Hash, OpClass::Fill,
                   OpClass::Rpc})
        names.insert(opClassName(c));
    EXPECT_EQ(names.size(), 9u);
}

} // namespace
