/**
 * @file
 * Server platform SKUs (Section V-B). SC-Large is the typical large
 * data-center server (256 GB DRAM, 2x20 cores); SC-Small is the typical
 * efficient web server (64 GB DRAM, 2x18 slower cores, less network
 * bandwidth). The platform-efficiency experiment (Fig. 15) re-runs sparse
 * shards on SC-Small.
 */
#pragma once

#include <cstdint>
#include <string>

namespace dri::dc {

/** Static description of a server SKU. */
struct Platform
{
    std::string name;
    int cores = 40;                  //!< worker cores usable for serving
    double cpu_time_scale = 1.0;     //!< CPU-time multiplier vs reference
    std::int64_t dram_bytes = 0;     //!< installed DRAM
    double nic_bandwidth_bytes_per_ns = 3.0;
    double idle_watts = 120.0;       //!< chassis idle power
    double busy_watts = 400.0;       //!< chassis full-load power

    /**
     * DRAM usable for model parameters after OS/service overheads (the
     * paper cites commodity servers with ~50 GB usable DRAM in the
     * compression discussion — about 80% of installed capacity is a
     * serviceable rule for large SKUs).
     */
    std::int64_t usableModelBytes() const;

    /**
     * Chassis power at CPU utilization `u`: linear between idle and
     * full-load draw. Every watt ledger goes through this one curve.
     */
    double
    powerWatts(double u) const
    {
        return idle_watts + (busy_watts - idle_watts) * u;
    }
};

/** The typical large data-center server: 2x20 cores, 256 GB. */
Platform scLarge();

/** The typical efficient web server: 2x18 slower cores, 64 GB. */
Platform scSmall();

} // namespace dri::dc
