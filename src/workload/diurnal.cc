#include "workload/diurnal.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"
#include "stats/hash.h"
#include "stats/rng.h"

namespace dri::workload {

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

} // namespace

DiurnalLoadModel::DiurnalLoadModel(const model::ModelSpec &spec,
                                   DiurnalLoadConfig config)
    : spec_(spec), config_(config),
      context_pool_(
          RequestGenerator(spec_, GeneratorConfig{config_.seed ^ 0x9001})
              .generate(config_.context_pool))
{
    if (!(config_.base_qps > 0.0))
        throw std::invalid_argument("DiurnalLoadModel: base_qps must be > 0");
    if (!(config_.amplitude >= 0.0 && config_.amplitude < 1.0))
        throw std::invalid_argument(
            "DiurnalLoadModel: amplitude must lie in [0, 1)");
    if (config_.epochs_per_day <= 0)
        throw std::invalid_argument(
            "DiurnalLoadModel: epochs_per_day must be > 0");
    if (!(config_.burst_fraction >= 0.0 && config_.burst_fraction <= 1.0))
        throw std::invalid_argument(
            "DiurnalLoadModel: burst_fraction must lie in [0, 1]");
}

double
DiurnalLoadModel::forecastQps(int epoch) const
{
    const double t = static_cast<double>(epoch) /
                     static_cast<double>(config_.epochs_per_day);
    return config_.base_qps * (1.0 + config_.amplitude * std::sin(kTwoPi * t));
}

double
DiurnalLoadModel::peakForecastQps() const
{
    // The continuous peak base*(1+amplitude) may fall between epoch grid
    // points; a static provisioner must cover every epoch it will face,
    // so report the grid maximum over one full day.
    double peak = 0.0;
    for (int e = 0; e < config_.epochs_per_day; ++e)
        peak = std::max(peak, forecastQps(e));
    return peak;
}

int
DiurnalLoadModel::burstCount(int epoch) const
{
    if (config_.bursts_per_epoch <= 0.0)
        return 0;
    // Independent per-epoch stream: draws for epoch e never perturb
    // epoch e+1, so any policy observing any prefix sees identical
    // bursts.
    stats::Rng rng(stats::mix64(
        config_.seed ^ (0xb1a5e5ULL + static_cast<std::uint64_t>(
                                          static_cast<std::uint32_t>(epoch)) *
                                          0x9e3779b97f4a7c15ULL)));
    return stats::samplePoissonKnuth(config_.bursts_per_epoch, rng);
}

double
DiurnalLoadModel::realizedQps(int epoch) const
{
    const double uplift = static_cast<double>(burstCount(epoch)) *
                          (config_.burst_multiplier - 1.0) *
                          config_.burst_fraction;
    return forecastQps(epoch) * (1.0 + std::max(0.0, uplift));
}

std::vector<Request>
DiurnalLoadModel::epochRequests(int epoch, std::size_t n) const
{
    const std::uint64_t seed = stats::mix64(
        config_.seed + 0x5eed0000ULL * static_cast<std::uint64_t>(
                                           static_cast<std::uint32_t>(
                                               epoch + 1)));
    if (context_pool_.empty())
        return RequestGenerator(spec_, GeneratorConfig{seed}).generate(n);
    // Recurring contexts: the per-epoch stream is the sampling order and
    // the user ids.
    stats::Rng pick(seed);
    const auto last = static_cast<std::int64_t>(context_pool_.size()) - 1;
    std::vector<Request> requests;
    requests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Request req = context_pool_[static_cast<std::size_t>(
            pick.uniformInt(0, last))];
        req.id = (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(epoch))
                  << 32) |
                 static_cast<std::uint64_t>(i);
        requests.push_back(std::move(req));
    }
    return requests;
}

} // namespace dri::workload
