/**
 * @file
 * Declarative model specification: the metadata that drives capacity-driven
 * sharding and the request-level cost profiles. A ModelSpec captures every
 * model attribute the paper identifies as relevant (Section V-A): number of
 * nets, table count/size/pooling distributions, request size distribution,
 * batch sizing, and operator compute attribution.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/spec_types.h"

namespace dri::model {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/**
 * One embedding table's static attributes. Sizes are logical (paper scale).
 */
struct TableSpec
{
    int id = 0;
    std::string name;
    int net_id = 0;          //!< owning net (DRM1/DRM2 have 2 nets)
    std::int64_t rows = 0;
    std::int64_t dim = 32;

    /**
     * Expected embedding lookups contributed by this table. For item-scaled
     * tables this is per ranked item; for per-request tables (e.g. DRM3's
     * dominant user table, pooling factor 1) it is per request regardless of
     * request size.
     */
    double pooling_per_item = 0.0;
    bool pooling_per_request = false;

    /** Storage precision; compression passes lower it (Table III). */
    Precision precision = Precision::Fp32;
    /** Fraction of rows removed by magnitude pruning. */
    double prune_fraction = 0.0;

    std::int64_t
    logicalBytes() const
    {
        const double kept_rows =
            static_cast<double>(rows) * (1.0 - prune_fraction);
        return static_cast<std::int64_t>(
            kept_rows *
            static_cast<double>(rowBytes(precision, dim)));
    }

    /** Bytes of one stored row at the current precision. */
    std::int64_t storedRowBytes() const
    {
        return rowBytes(precision, dim);
    }

    /** Expected lookups for a request with the given item count. */
    double expectedLookups(double items) const
    {
        return pooling_per_request ? pooling_per_item
                                   : pooling_per_item * items;
    }
};

/** One net's dense-path attributes. */
struct NetSpec
{
    int id = 0;
    std::string name;

    /**
     * Non-sparse (dense + transform + activation) CPU nanoseconds per ranked
     * item attributed to this net, on the reference platform.
     */
    double dense_ns_per_item = 0.0;

    /** Fixed per-batch CPU nanoseconds (net setup, small fixed layers). */
    double dense_fixed_ns = 0.0;
};

/** Full model specification. */
struct ModelSpec
{
    std::string name;
    std::vector<NetSpec> nets;
    std::vector<TableSpec> tables;

    /** Request-size (ranked items) distribution: bounded Pareto. */
    double mean_items = 256.0;
    double items_alpha = 1.15;
    double items_min = 16.0;
    double items_max = 4096.0;

    /** Production-default batch size (items per inference batch). */
    int default_batch_size = 64;

    /** Per-item dense-feature payload bytes in the request. */
    double request_bytes_per_item = 512.0;

    /**
     * Operator compute attribution (Fig. 4): fraction of non-distributed
     * operator CPU per op class. Fractions sum to 1.
     */
    std::map<OpClass, double> compute_attribution;

    // -- Derived helpers ---------------------------------------------------

    std::int64_t totalCapacityBytes() const;
    std::int64_t largestTableBytes() const;
    std::size_t tableCount() const { return tables.size(); }

    /** Tables belonging to the given net. */
    std::vector<const TableSpec *> tablesForNet(int net_id) const;

    /** Expected total lookups per mean-sized request. */
    double expectedPoolingPerRequest() const;

    /** Expected lookups per mean-sized request for one net. */
    double expectedPoolingPerRequest(int net_id) const;

    /** Fraction of operator compute attributed to sparse ops. */
    double sparseComputeShare() const;

    /** Validate internal consistency (ids, fractions, positivity). */
    bool validate(std::string *error = nullptr) const;
};

} // namespace dri::model
