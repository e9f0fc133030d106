/**
 * @file
 * Synthetic ranking-request generation (substitution for the paper's
 * production replayer, Section V-B). Requests carry a heavy-tailed item
 * count and per-table lookup counts drawn around each table's pooling
 * factor; the identical request sequence is replayed against every sharding
 * configuration, matching the paper's paired-comparison methodology.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/model_spec.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace dri::workload {

/** One ranking request. */
struct Request
{
    std::uint64_t id = 0;
    std::int64_t items = 0; //!< candidate items to rank

    /** Lookups per table, indexed by TableSpec::id. */
    std::vector<std::int32_t> table_lookups;

    /**
     * Content identity: a hash of the request's feature vector (items +
     * per-table lookup counts), *excluding* the user-facing id. Two
     * requests from different users with identical feature vectors carry
     * equal hashes — and may therefore share pooled-result-cache entries
     * — while distinct vectors of equal total shape do not. Zero means
     * "no content identity" (hand-built requests): consumers fall back
     * to shape-only keying. The generator and mergeRequests always fill
     * it; call computeContentHash() after mutating a request by hand.
     */
    std::uint64_t content_hash = 0;

    /** Total lookups across all tables. */
    std::int64_t totalLookups() const;

    /** Hash of (items, table_lookups); never returns 0. */
    std::uint64_t computeContentHash() const;
};

/**
 * Coalesce several requests into one batched request: items and per-table
 * lookup counts sum; the id is taken from the first part (the oldest
 * request in a dynamic batch names the merged batch). Throws
 * std::invalid_argument when `parts` is empty or the parts' table_lookups
 * differ in length (they must describe the same model).
 */
Request mergeRequests(const std::vector<Request> &parts);

/** Configuration for request synthesis. */
struct GeneratorConfig
{
    std::uint64_t seed = 42;
    /**
     * Diurnal modulation amplitude in [0, 1): scales request sizes
     * sinusoidally across the generated sequence, emulating the paper's
     * five-day evenly sampled request database.
     */
    double diurnal_amplitude = 0.0;
};

/** Generates deterministic request streams for a model. */
class RequestGenerator
{
  public:
    RequestGenerator(const model::ModelSpec &spec, GeneratorConfig config);

    /** Generate the next request. */
    Request next();

    /** Generate a batch of n requests. */
    std::vector<Request> generate(std::size_t n);

    /**
     * Estimate per-table pooling factors by sampling `n` requests, exactly
     * as the paper does (1000-request sample, Section III-B2). Returns mean
     * lookups per request indexed by table id. Does not perturb the main
     * request stream.
     */
    std::vector<double> estimatePoolingFactors(std::size_t n = 1000) const;

    const model::ModelSpec &spec() const { return spec_; }

  private:
    const model::ModelSpec &spec_;
    GeneratorConfig config_;
    stats::Rng rng_;
    stats::BoundedParetoSampler items_sampler_;
    std::uint64_t next_id_ = 0;

    Request makeRequest(stats::Rng &rng, std::uint64_t id,
                        double size_scale) const;
};

} // namespace dri::workload
