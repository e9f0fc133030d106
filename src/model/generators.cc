#include "model/generators.h"

#include <cassert>
#include <cmath>
#include <numeric>

namespace dri::model {

namespace {

double
ladderTotal(std::size_t n, double largest, double s)
{
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += largest * std::pow(static_cast<double>(i + 1), -s);
    return total;
}

/** Smallest k >= 3 coprime with n, used for deterministic permutations. */
std::size_t
coprimeStep(std::size_t n)
{
    for (std::size_t k = 3;; k += 2)
        if (std::gcd(k, n) == 1)
            return k;
}

/**
 * Build one net's worth of tables: sizes follow a power-law ladder
 * (largest first) and pooling follows its own ladder assigned through a
 * permutation, so table size and table hotness are uncorrelated — the
 * property that makes capacity-balanced and load-balanced sharding differ
 * (Table II).
 */
void
addNetTables(ModelSpec &spec, int net_id, std::size_t count,
             double total_gib, double largest_gib, double total_pooling,
             double pooling_concentration)
{
    const auto sizes = powerLawLadder(count, largest_gib * kGiB,
                                      total_gib * kGiB);
    const auto pooling = powerLawLadder(
        count, total_pooling * pooling_concentration, total_pooling);
    const std::size_t step = coprimeStep(count);

    const int first_id = static_cast<int>(spec.tables.size());
    for (std::size_t i = 0; i < count; ++i) {
        TableSpec t;
        t.id = first_id + static_cast<int>(i);
        t.name = spec.name + "_net" + std::to_string(net_id) + "_t" +
                 std::to_string(i);
        t.net_id = net_id;
        // Mild dim variety keyed off the index; all power-of-two like
        // production tables.
        t.dim = (i % 7 == 0) ? 64 : (i % 3 == 0 ? 16 : 32);
        t.rows = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(sizes[i] / (4.0 * t.dim)));
        // Pooling rank is a permuted size rank; convert request-level
        // pooling to per-item by the model's mean request size.
        const std::size_t pool_rank = (i * step + 1) % count;
        t.pooling_per_item = pooling[pool_rank] / spec.mean_items;
        spec.tables.push_back(t);
    }
}

/**
 * Derive per-net dense CPU coefficients so that sparse operators account
 * for exactly `sparse_share` of operator compute at the mean request size
 * (the Fig. 4 calibration), then split the dense time across nets.
 */
void
calibrateDense(ModelSpec &spec, double sparse_share,
               const std::vector<double> &net_dense_split,
               double fixed_ns_per_batch)
{
    const double pooling_per_item =
        spec.expectedPoolingPerRequest() / spec.mean_items;
    const double sparse_ns_per_item = pooling_per_item * kNsPerLookup;
    const double dense_ns_per_item =
        sparse_ns_per_item * (1.0 - sparse_share) / sparse_share;
    assert(net_dense_split.size() == spec.nets.size());
    for (std::size_t i = 0; i < spec.nets.size(); ++i) {
        spec.nets[i].dense_ns_per_item =
            dense_ns_per_item * net_dense_split[i];
        spec.nets[i].dense_fixed_ns = fixed_ns_per_batch;
    }
}

} // namespace

std::vector<double>
powerLawLadder(std::size_t n, double largest, double total)
{
    assert(n > 0 && largest > 0.0);
    assert(total >= largest * 0.999);
    assert(total <= largest * static_cast<double>(n) * 1.001);
    if (n == 1)
        return {largest};

    // ladderTotal is monotone decreasing in s; bisect.
    double lo = 0.0, hi = 50.0;
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (ladderTotal(n, largest, mid) > total)
            lo = mid;
        else
            hi = mid;
    }
    const double s = 0.5 * (lo + hi);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = largest * std::pow(static_cast<double>(i + 1), -s);
    return out;
}

ModelSpec
makeDrm1()
{
    ModelSpec spec;
    spec.name = "DRM1";
    spec.mean_items = 200.0;
    spec.items_alpha = 2.0;
    spec.items_min = 100.0;
    spec.items_max = 4000.0;
    spec.default_batch_size = 64;
    spec.request_bytes_per_item = 512.0;
    spec.nets = {{0, "net1", 0.0, 0.0}, {1, "net2", 0.0, 0.0}};

    // Net 1: small but hot — 72 tables, 33.58 GiB, ~94% of pooling work.
    addNetTables(spec, 0, 72, 33.58, 2.0, 126652.7, 0.12);
    // Net 2: large but cold — 185 tables, 160.47 GiB (largest table 3.6 GB).
    addNetTables(spec, 1, 185, 160.47, 3.6 * 1e9 / kGiB, 8010.7, 0.10);

    spec.compute_attribution = {
        {OpClass::Dense, 0.470},
        {OpClass::MemoryTransform, 0.160},
        {OpClass::FeatureTransform, 0.120},
        {OpClass::Sparse, 0.097},
        {OpClass::Activations, 0.060},
        {OpClass::ScaleClip, 0.050},
        {OpClass::Fill, 0.025},
        {OpClass::Hash, 0.018},
    };
    calibrateDense(spec, 0.097, {0.40, 0.60}, 50000.0);
    return spec;
}

ModelSpec
makeDrm2()
{
    ModelSpec spec;
    spec.name = "DRM2";
    spec.mean_items = 100.0;
    spec.items_alpha = 2.0;
    spec.items_min = 50.0;
    spec.items_max = 2000.0;
    spec.default_batch_size = 64;
    spec.request_bytes_per_item = 512.0;
    spec.nets = {{0, "net1", 0.0, 0.0}, {1, "net2", 0.0, 0.0}};

    // 133 tables, 138 GB total, largest 6.7 GB (in the cold net).
    addNetTables(spec, 0, 40, 24.0, 1.5, 51000.0, 0.15);
    addNetTables(spec, 1, 93, 114.53, 6.7 * 1e9 / kGiB, 9000.0, 0.10);

    spec.compute_attribution = {
        {OpClass::Dense, 0.490},
        {OpClass::MemoryTransform, 0.150},
        {OpClass::FeatureTransform, 0.110},
        {OpClass::Sparse, 0.096},
        {OpClass::Activations, 0.060},
        {OpClass::ScaleClip, 0.050},
        {OpClass::Fill, 0.026},
        {OpClass::Hash, 0.018},
    };
    calibrateDense(spec, 0.096, {0.40, 0.60}, 50000.0);
    return spec;
}

ModelSpec
makeDrm3()
{
    ModelSpec spec;
    spec.name = "DRM3";
    spec.mean_items = 60.0;
    spec.items_alpha = 2.0;
    spec.items_min = 30.0;
    spec.items_max = 1000.0;
    // Requests are small enough for one batch at the production default.
    spec.default_batch_size = 256;
    spec.request_bytes_per_item = 512.0;
    spec.nets = {{0, "net1", 0.0, 0.0}};

    // The dominant table: 178.8 GB, pooling factor 1 per *request*.
    TableSpec dominant;
    dominant.id = 0;
    dominant.name = "DRM3_net0_dominant";
    dominant.net_id = 0;
    dominant.dim = 32;
    dominant.rows = static_cast<std::int64_t>(178.8e9 / (4.0 * 32));
    dominant.pooling_per_item = 1.0;
    dominant.pooling_per_request = true;
    spec.tables.push_back(dominant);

    // 38 smaller tables totalling ~21.2 GiB.
    addNetTables(spec, 0, 38, 21.25, 3.0, 3100.0, 0.15);

    spec.compute_attribution = {
        {OpClass::Dense, 0.620},
        {OpClass::MemoryTransform, 0.100},
        {OpClass::FeatureTransform, 0.070},
        {OpClass::Sparse, 0.031},
        {OpClass::Activations, 0.080},
        {OpClass::ScaleClip, 0.060},
        {OpClass::Fill, 0.020},
        {OpClass::Hash, 0.019},
    };
    calibrateDense(spec, 0.031, {1.0}, 50000.0);
    return spec;
}

std::vector<ModelSpec>
makeAllModels()
{
    return {makeDrm1(), makeDrm2(), makeDrm3()};
}

ModelSpec
makeCacheStudySpec()
{
    ModelSpec spec;
    spec.name = "cache-study";
    spec.mean_items = 64.0;
    spec.items_alpha = 1.3;
    spec.items_min = 16.0;
    spec.items_max = 256.0;
    spec.nets = {{0, "net", 1.0, 0.0}};
    TableSpec t;
    t.id = 0;
    t.name = "emb";
    t.rows = 200000;
    t.dim = 32;
    t.pooling_per_item = 2.0;
    spec.tables.push_back(t);
    return spec;
}

ModelSpec
makeShardedCacheStudySpec()
{
    ModelSpec spec;
    spec.name = "sharded-cache-study";
    spec.mean_items = 64.0;
    spec.items_alpha = 1.3;
    spec.items_min = 16.0;
    spec.items_max = 256.0;
    spec.nets = {{0, "net", 1.0, 0.0}};
    for (int i = 0; i < 8; ++i) {
        TableSpec t;
        t.id = i;
        t.name = "emb" + std::to_string(i);
        t.rows = 50000;
        t.dim = 32;
        t.pooling_per_item = 2.0;
        spec.tables.push_back(t);
    }
    return spec;
}

std::vector<GrowthPoint>
modelGrowthSeries()
{
    // Three years of quarterly growth: features ~10x, capacity ~20x
    // (capacity grows faster because embedding dimensions and hash sizes
    // grow alongside feature count).
    std::vector<GrowthPoint> series;
    const int quarters = 13;
    for (int q = 0; q < quarters; ++q) {
        const double f = static_cast<double>(q) /
                         static_cast<double>(quarters - 1);
        GrowthPoint p;
        p.year_quarter = q;
        p.num_features = 1.0 * std::pow(10.0, f);
        p.capacity_gb = 12.0 * std::pow(20.0, f);
        series.push_back(p);
    }
    return series;
}

} // namespace dri::model
