#include "netsim/link_model.h"

#include <stdexcept>

namespace dri::netsim {

namespace {

/** `config`, once its ranges are checked (before the jitter sampler). */
const LinkConfig &
checked(const LinkConfig &config)
{
    if (config.base_one_way_ns < 0)
        throw std::invalid_argument(
            "LinkModel: base_one_way_ns must be >= 0");
    if (!(config.jitter_sigma >= 0.0))
        throw std::invalid_argument("LinkModel: jitter_sigma must be >= 0");
    if (!(config.bandwidth_bytes_per_ns > 0.0))
        throw std::invalid_argument(
            "LinkModel: bandwidth_bytes_per_ns must be > 0");
    return config;
}

} // namespace

LinkModel::LinkModel(LinkConfig config)
    : config_(checked(config)), jitter_(1.0, config.jitter_sigma)
{
}

} // namespace dri::netsim
