/**
 * @file
 * Network link model for the simulated data-center intranet.
 *
 * All inter-shard communication in the paper crosses a standard TCP/IP
 * Ethernet fabric (Section III-C); the dominant latency terms are a
 * near-constant propagation + kernel processing base, lognormal jitter from
 * switching/queueing, and a bandwidth term proportional to message size.
 * The paper's headline observation — "network latency was greater than
 * operator latency" for every distributed configuration — is a property of
 * exactly these constants, so they are explicit and sweepable (see
 * bench_ablation_network_sweep).
 */
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/time.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace dri::netsim {

/** Static description of a link between two servers. */
struct LinkConfig
{
    /** One-way base latency: propagation + kernel packet processing. */
    sim::Duration base_one_way_ns = 150 * sim::kMicrosecond;
    /** Lognormal jitter sigma applied multiplicatively to the base. */
    double jitter_sigma = 0.25;
    /** Usable NIC-to-NIC bandwidth in bytes per nanosecond (GB/s). */
    double bandwidth_bytes_per_ns = 6.0; // ~50 Gb/s effective
};

/**
 * Samples per-message one-way delivery delays. Stateless apart from the
 * caller-provided RNG so replicas can share one model.
 */
class LinkModel
{
  public:
    /**
     * Throws std::invalid_argument, in every build type, for a negative
     * base_one_way_ns or jitter_sigma, or bandwidth_bytes_per_ns <= 0.
     */
    explicit LinkModel(LinkConfig config);

    /** One-way delay for a message of the given size, jitter drawn from
     *  `engine` (an Rng or CounterStream). Inline: paid twice (out and
     *  back) by every RPC attempt. */
    template <class Engine>
    sim::Duration
    oneWayDelay(std::int64_t bytes, Engine &engine) const
    {
        const double base = static_cast<double>(config_.base_one_way_ns) *
                            jitter_.sample(engine);
        const double wire =
            static_cast<double>(bytes) / config_.bandwidth_bytes_per_ns;
        return static_cast<sim::Duration>(std::llround(base + wire));
    }

    const LinkConfig &config() const { return config_; }

  private:
    LinkConfig config_;
    stats::LognormalSampler jitter_;
};

} // namespace dri::netsim
