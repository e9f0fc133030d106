#include "oracle/embedding_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dri::tensor {

namespace {

/** SplitMix64 hash used for row placement and value synthesis. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic value in roughly [-0.1, 0.1] for (seed, row, col). */
float
syntheticValue(std::uint64_t seed, std::int64_t row, std::int64_t col)
{
    const std::uint64_t h =
        mix64(seed ^ mix64(static_cast<std::uint64_t>(row) * 0x100000001b3ULL +
                           static_cast<std::uint64_t>(col)));
    const double unit =
        static_cast<double>(h >> 11) /
        static_cast<double>(1ULL << 53); // [0, 1)
    return static_cast<float>((unit - 0.5) * 0.2);
}

} // namespace

VirtualEmbeddingTable::VirtualEmbeddingTable(std::int64_t logical_rows,
                                             std::int64_t dim,
                                             std::uint64_t seed,
                                             std::int64_t physical_rows)
    : logical_rows_(logical_rows), dim_(dim),
      physical_rows_(std::min(physical_rows, logical_rows)), seed_(seed)
{
    assert(logical_rows > 0 && dim > 0 && physical_rows > 0);
    backing_.resize(static_cast<std::size_t>(physical_rows_ * dim_));
    for (std::int64_t r = 0; r < physical_rows_; ++r)
        for (std::int64_t c = 0; c < dim_; ++c)
            backing_[static_cast<std::size_t>(r * dim_ + c)] =
                syntheticValue(seed, r, c);
}

std::int64_t
VirtualEmbeddingTable::physicalIndex(std::int64_t row) const
{
    return static_cast<std::int64_t>(
        mix64(seed_ ^ static_cast<std::uint64_t>(row)) %
        static_cast<std::uint64_t>(physical_rows_));
}

void
VirtualEmbeddingTable::readRow(std::int64_t row, float *dst) const
{
    assert(row >= 0 && row < logical_rows_);
    const float *src =
        backing_.data() + physicalIndex(row) * dim_;
    std::memcpy(dst, src, static_cast<std::size_t>(dim_) * sizeof(float));
}

void
VirtualEmbeddingTable::sls(const std::vector<std::int64_t> &indices,
                           const std::vector<std::int32_t> &lengths,
                           Tensor &out) const
{
    const auto segments = static_cast<std::int64_t>(lengths.size());
    out = Tensor(segments, dim_);
    std::vector<float> scratch(static_cast<std::size_t>(dim_));
    std::size_t cursor = 0;
    for (std::int64_t s = 0; s < segments; ++s) {
        float *dst = out.row(s);
        const auto len = static_cast<std::size_t>(lengths[static_cast<std::size_t>(s)]);
        for (std::size_t k = 0; k < len; ++k) {
            assert(cursor < indices.size());
            readRow(indices[cursor++], scratch.data());
            for (std::int64_t c = 0; c < dim_; ++c)
                dst[c] += scratch[static_cast<std::size_t>(c)];
        }
    }
    assert(cursor == indices.size());
}

} // namespace dri::tensor
