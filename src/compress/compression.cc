#include "compress/compression.h"

namespace dri::compress {

namespace {

bool
isLarge(const model::TableSpec &table, const CompressionPolicy &policy)
{
    // Judge size at the uncompressed footprint so the decision is stable
    // across repeated passes.
    return table.rows * table.dim * 4 >= policy.large_table_threshold_bytes;
}

} // namespace

CompressionReport
compressSpec(model::ModelSpec &spec, const CompressionPolicy &policy)
{
    CompressionReport report;
    for (auto &t : spec.tables) {
        report.uncompressed_bytes += t.rows * t.dim * 4;
        if (isLarge(t, policy)) {
            t.precision = policy.large_table_precision;
            t.prune_fraction = policy.large_table_prune_fraction;
        } else {
            t.precision = policy.small_table_precision;
            t.prune_fraction = policy.small_table_prune_fraction;
        }
        if (t.precision == model::Precision::Int4)
            ++report.tables_int4;
        else if (t.precision == model::Precision::Int8)
            ++report.tables_int8;
        report.compressed_bytes += t.logicalBytes();
    }
    return report;
}

} // namespace dri::compress
