/**
 * @file
 * Tests for the oracle's tensor substrate: shape math, dense kernels
 * against hand-computed references, and VirtualEmbeddingTable semantics —
 * determinism and SLS pooling.
 */
#include <gtest/gtest.h>

#include "oracle/embedding_table.h"
#include "oracle/kernels.h"
#include "oracle/tensor.h"

namespace {

using namespace dri::tensor;

TEST(Tensor, ShapesAndAccess)
{
    Tensor t(2, 3);
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.numel(), 6);
    EXPECT_EQ(t.rows(), 2);
    EXPECT_EQ(t.cols(), 3);
    t.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(t.at(5), 5.0f);
    EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
}

TEST(Tensor, BytesAndFill)
{
    Tensor t(4, 4);
    EXPECT_EQ(t.bytes(), 64);
    t.fill(2.5f);
    EXPECT_FLOAT_EQ(t.at(3, 3), 2.5f);
}

TEST(Kernels, FullyConnectedReference)
{
    // in = [[1, 2]], W = [[3, 4], [5, 6]], b = [0.5, -0.5]
    auto in = Tensor::fromMatrix(1, 2, {1, 2});
    auto w = Tensor::fromMatrix(2, 2, {3, 4, 5, 6});
    auto b = Tensor::fromVector({0.5f, -0.5f});
    Tensor out;
    fullyConnected(in, w, b, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 3 + 2 * 4 + 0.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 1 * 5 + 2 * 6 - 0.5f);
}

TEST(Kernels, ReluAndSigmoid)
{
    auto t = Tensor::fromVector({-1.0f, 0.0f, 2.0f});
    reluInPlace(t);
    EXPECT_FLOAT_EQ(t.at(0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(2), 2.0f);

    auto s = Tensor::fromVector({0.0f});
    sigmoidInPlace(s);
    EXPECT_FLOAT_EQ(s.at(0), 0.5f);
}

TEST(Kernels, ConcatColumns)
{
    auto a = Tensor::fromMatrix(2, 1, {1, 2});
    auto b = Tensor::fromMatrix(2, 2, {3, 4, 5, 6});
    Tensor out;
    concatColumns({&a, &b}, out);
    EXPECT_EQ(out.rows(), 2);
    EXPECT_EQ(out.cols(), 3);
    EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(out.at(1, 2), 6.0f);
}

TEST(Kernels, DotInteractionPairs)
{
    // Two blocks of dim 2: output = dim + 1 pair.
    auto x = Tensor::fromMatrix(1, 2, {1, 2});
    auto y = Tensor::fromMatrix(1, 2, {3, 4});
    Tensor out;
    dotInteraction({&x, &y}, out);
    EXPECT_EQ(out.cols(), 3);
    EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f); // skip connection
    EXPECT_FLOAT_EQ(out.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2), 1 * 3 + 2 * 4);
}

TEST(Kernels, SumTensorsAndL1)
{
    auto a = Tensor::fromVector({1, 2});
    auto b = Tensor::fromVector({10, 20});
    Tensor out;
    sumTensors({&a, &b}, out);
    EXPECT_FLOAT_EQ(out.at(1), 22.0f);
    EXPECT_DOUBLE_EQ(l1Distance(a, b), 9 + 18);
}

TEST(EmbeddingTable, DeterministicAcrossInstances)
{
    VirtualEmbeddingTable t1(1000000, 8, 0xabc, 128);
    VirtualEmbeddingTable t2(1000000, 8, 0xabc, 128);
    std::vector<float> r1(8), r2(8);
    for (std::int64_t row : {0LL, 999999LL, 123456LL}) {
        t1.readRow(row, r1.data());
        t2.readRow(row, r2.data());
        for (int c = 0; c < 8; ++c)
            EXPECT_FLOAT_EQ(r1[static_cast<std::size_t>(c)],
                            r2[static_cast<std::size_t>(c)]);
    }
}

TEST(EmbeddingTable, DifferentSeedsDiffer)
{
    VirtualEmbeddingTable t1(1000, 8, 1, 128);
    VirtualEmbeddingTable t2(1000, 8, 2, 128);
    std::vector<float> r1(8), r2(8);
    t1.readRow(5, r1.data());
    t2.readRow(5, r2.data());
    bool differ = false;
    for (int c = 0; c < 8; ++c)
        differ = differ || r1[static_cast<std::size_t>(c)] !=
                               r2[static_cast<std::size_t>(c)];
    EXPECT_TRUE(differ);
}

TEST(EmbeddingTable, SlsMatchesManualPooling)
{
    VirtualEmbeddingTable t(1000, 4, 0x77, 64);
    std::vector<std::int64_t> indices{1, 2, 3, 10, 20};
    std::vector<std::int32_t> lengths{3, 0, 2};
    Tensor out;
    t.sls(indices, lengths, out);
    EXPECT_EQ(out.rows(), 3);
    EXPECT_EQ(out.cols(), 4);

    std::vector<float> row(4), expect(4, 0.0f);
    for (std::int64_t i : {1, 2, 3}) {
        t.readRow(i, row.data());
        for (int c = 0; c < 4; ++c)
            expect[static_cast<std::size_t>(c)] +=
                row[static_cast<std::size_t>(c)];
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_FLOAT_EQ(out.at(0, c), expect[static_cast<std::size_t>(c)]);
    // Empty segment pools to zero.
    for (int c = 0; c < 4; ++c)
        EXPECT_FLOAT_EQ(out.at(1, c), 0.0f);
}

/** Property: SLS is additive — splitting indices into two calls and
 *  summing equals one call (the row-split sharding identity). */
class SlsAdditivityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SlsAdditivityTest, SplitBySumEqualsWhole)
{
    const int ways = GetParam();
    VirtualEmbeddingTable t(50000, 8, 0xbeef, 256);
    std::vector<std::int64_t> indices;
    std::vector<std::int32_t> lengths;
    for (int seg = 0; seg < 6; ++seg) {
        lengths.push_back(5);
        for (int k = 0; k < 5; ++k)
            indices.push_back((seg * 911 + k * 577) % 50000);
    }
    Tensor whole;
    t.sls(indices, lengths, whole);

    // Partition indices by modulus and pool each part separately.
    std::vector<Tensor> parts(static_cast<std::size_t>(ways));
    for (int w = 0; w < ways; ++w) {
        std::vector<std::int64_t> sub;
        std::vector<std::int32_t> sub_len(lengths.size(), 0);
        std::size_t cursor = 0;
        for (std::size_t seg = 0; seg < lengths.size(); ++seg)
            for (int k = 0; k < lengths[seg]; ++k) {
                const auto idx = indices[cursor++];
                if (idx % ways == w) {
                    sub.push_back(idx);
                    ++sub_len[seg];
                }
            }
        t.sls(sub, sub_len, parts[static_cast<std::size_t>(w)]);
    }
    std::vector<const Tensor *> ptrs;
    for (const auto &p : parts)
        ptrs.push_back(&p);
    Tensor combined;
    sumTensors(ptrs, combined);
    EXPECT_LT(l1Distance(whole, combined), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Ways, SlsAdditivityTest,
                         ::testing::Values(2, 3, 4, 7, 8));

} // namespace
