/**
 * @file
 * Virtual embedding tables with SparseLengthsSum (SLS) pooling.
 *
 * The paper's models carry 138-200 GB of embedding tables (Fig. 5); holding
 * them resident is neither possible nor necessary here. A
 * VirtualEmbeddingTable keeps the *logical* geometry (rows x dim, at paper
 * scale) for capacity-driven sharding while backing lookups with a small
 * hashed physical store, so pooling still performs real arithmetic and
 * row-split sharding can be verified numerically.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "oracle/tensor.h"

namespace dri::tensor {

/**
 * An embedding table with paper-scale logical geometry and a hashed,
 * deterministic physical backing store.
 *
 * Logical row r maps to physical row hash(r) mod physical_rows; the backing
 * values are a pure function of (seed, physical row, column), so any two
 * tables constructed with identical parameters agree exactly — the property
 * row-split sharding correctness tests rely on.
 */
class VirtualEmbeddingTable
{
  public:
    /**
     * @param logical_rows  Row count at paper scale (may be billions).
     * @param dim           Embedding dimension.
     * @param seed          Determines backing values.
     * @param physical_rows Size of the hashed backing store.
     */
    VirtualEmbeddingTable(std::int64_t logical_rows, std::int64_t dim,
                          std::uint64_t seed,
                          std::int64_t physical_rows = 2048);

    std::int64_t logicalRows() const { return logical_rows_; }
    std::int64_t dim() const { return dim_; }
    std::int64_t physicalRows() const { return physical_rows_; }
    std::uint64_t seed() const { return seed_; }

    /** Read one logical row into dst[0..dim). */
    void readRow(std::int64_t row, float *dst) const;

    /**
     * SparseLengthsSum: segment i pools (sums) the rows named by
     * indices[offset_i .. offset_i + lengths[i]). Output is
     * [lengths.size(), dim]. Empty segments yield zero vectors.
     */
    void sls(const std::vector<std::int64_t> &indices,
             const std::vector<std::int32_t> &lengths, Tensor &out) const;

  private:
    std::int64_t logical_rows_;
    std::int64_t dim_;
    std::int64_t physical_rows_;
    std::uint64_t seed_;

    /** Backing values, one float row per physical row. */
    std::vector<float> backing_;

    std::int64_t physicalIndex(std::int64_t row) const;
};

} // namespace dri::tensor
