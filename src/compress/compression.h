/**
 * @file
 * Model compression: row-wise linear quantization plus magnitude pruning,
 * the techniques deployed on production models (Section VII-D, Table III).
 * All tables quantize to at least 8 bits; sufficiently large tables go to
 * 4 bits; pruning removes rows selected by the model architect (here: a
 * per-policy fraction on large tables). Compression composes with — and
 * does not replace — distributed inference: the paper's point is that even
 * a 5.56x size reduction leaves models too large for commodity servers.
 */
#pragma once

#include <cstdint>

#include "model/model_spec.h"

namespace dri::compress {

/** Quantization/pruning policy knobs. */
struct CompressionPolicy
{
    /** Precision for tables below the large-table threshold. */
    model::Precision small_table_precision = model::Precision::Int8;
    /** Precision for tables at or above the threshold. */
    model::Precision large_table_precision = model::Precision::Int4;
    /** Logical-byte threshold separating small from large tables. */
    std::int64_t large_table_threshold_bytes = 512LL * 1024 * 1024;
    /** Row fraction pruned from large tables. */
    double large_table_prune_fraction = 0.20;
    /** Row fraction pruned from small tables. */
    double small_table_prune_fraction = 0.05;
};

/** Outcome summary of a compression pass. */
struct CompressionReport
{
    std::int64_t uncompressed_bytes = 0;
    std::int64_t compressed_bytes = 0;
    std::size_t tables_int8 = 0;
    std::size_t tables_int4 = 0;

    double ratio() const
    {
        return compressed_bytes > 0
                   ? static_cast<double>(uncompressed_bytes) /
                         static_cast<double>(compressed_bytes)
                   : 0.0;
    }
};

/**
 * Apply the policy to a model spec in place (precision + prune fields of
 * each TableSpec), returning the before/after accounting.
 */
CompressionReport compressSpec(model::ModelSpec &spec,
                               const CompressionPolicy &policy);

} // namespace dri::compress
