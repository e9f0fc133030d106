#include "workload/request_generator.h"

#include <cmath>
#include <stdexcept>

#include "stats/hash.h"

namespace dri::workload {

std::int64_t
Request::totalLookups() const
{
    std::int64_t total = 0;
    for (auto n : table_lookups)
        total += n;
    return total;
}

std::uint64_t
Request::computeContentHash() const
{
    // Chained splitmix64 over the feature vector. The id is deliberately
    // excluded: content identity is about *what* is ranked, not who
    // asked.
    std::uint64_t h =
        stats::mix64(0x5eedc0deULL ^ static_cast<std::uint64_t>(items));
    for (const auto n : table_lookups)
        h = stats::mix64(h ^ static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(n)));
    return h != 0 ? h : 1; // 0 is reserved for "no content identity"
}

Request
mergeRequests(const std::vector<Request> &parts)
{
    if (parts.empty())
        throw std::invalid_argument("mergeRequests: no parts to merge");
    Request merged = parts.front();
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const Request &p = parts[i];
        if (p.table_lookups.size() != merged.table_lookups.size())
            throw std::invalid_argument(
                "mergeRequests: parts have different table counts");
        merged.items += p.items;
        for (std::size_t t = 0; t < merged.table_lookups.size(); ++t)
            merged.table_lookups[t] += p.table_lookups[t];
    }
    // Content identity follows the merged feature vector, so two batches
    // coalescing the same per-table totals share pooled results
    // regardless of which users contributed them.
    merged.content_hash = merged.computeContentHash();
    return merged;
}

RequestGenerator::RequestGenerator(const model::ModelSpec &spec,
                                   GeneratorConfig config)
    : spec_(spec), config_(config), rng_(config.seed),
      items_sampler_(spec.items_alpha, spec.items_min, spec.items_max)
{
}

namespace {

/**
 * Sample a count with the given mean: exact Poisson for small means,
 * Gaussian approximation for large ones (we draw hundreds of counts per
 * request across hundreds of tables).
 */
std::int32_t
sampleCount(double mean, stats::Rng &rng)
{
    if (mean < 32.0)
        return stats::samplePoissonKnuth(mean, rng);
    const double draw = rng.gaussian(mean, std::sqrt(mean));
    return static_cast<std::int32_t>(std::max(0.0, std::round(draw)));
}

} // namespace

Request
RequestGenerator::makeRequest(stats::Rng &rng, std::uint64_t id,
                              double size_scale) const
{
    Request req;
    req.id = id;
    const double items = items_sampler_.sample(rng) * size_scale;
    req.items = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(items)));

    req.table_lookups.resize(spec_.tables.size());
    const double items_d = static_cast<double>(req.items);
    for (std::size_t i = 0; i < spec_.tables.size(); ++i) {
        const auto &t = spec_.tables[i];
        const double mean = t.expectedLookups(items_d);
        if (t.pooling_per_request) {
            // Constant pooling (e.g. DRM3's dominant table: exactly one
            // lookup per request).
            req.table_lookups[i] =
                static_cast<std::int32_t>(std::llround(mean));
        } else {
            req.table_lookups[i] = sampleCount(mean, rng);
        }
    }
    req.content_hash = req.computeContentHash();
    return req;
}

Request
RequestGenerator::next()
{
    double scale = 1.0;
    if (config_.diurnal_amplitude > 0.0) {
        // One synthetic "day" every 1000 requests.
        const double phase = static_cast<double>(next_id_ % 1000) / 1000.0;
        scale = 1.0 + config_.diurnal_amplitude *
                          std::sin(2.0 * 3.14159265358979 * phase);
    }
    return makeRequest(rng_, next_id_++, scale);
}

std::vector<Request>
RequestGenerator::generate(std::size_t n)
{
    std::vector<Request> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(next());
    return out;
}

std::vector<double>
RequestGenerator::estimatePoolingFactors(std::size_t n) const
{
    // Independent stream: sampling must not perturb replayed requests.
    stats::Rng rng = rng_.fork(0xf00d);
    std::vector<double> sums(spec_.tables.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const Request req = makeRequest(rng, i, 1.0);
        for (std::size_t t = 0; t < sums.size(); ++t)
            sums[t] += static_cast<double>(req.table_lookups[t]);
    }
    for (auto &s : sums)
        s /= static_cast<double>(n);
    return sums;
}

} // namespace dri::workload
