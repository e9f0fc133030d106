#include "dc/platform.h"

namespace dri::dc {

std::int64_t
Platform::usableModelBytes() const
{
    return static_cast<std::int64_t>(0.8 * static_cast<double>(dram_bytes));
}

Platform
scLarge()
{
    Platform p;
    p.name = "SC-Large";
    p.cores = 40;
    p.cpu_time_scale = 1.0;
    p.dram_bytes = 256LL * 1024 * 1024 * 1024;
    p.nic_bandwidth_bytes_per_ns = 3.0;
    p.idle_watts = 150.0;
    p.busy_watts = 450.0;
    return p;
}

Platform
scSmall()
{
    Platform p;
    p.name = "SC-Small";
    p.cores = 36;
    p.cpu_time_scale = 1.2; // slower clocks
    p.dram_bytes = 64LL * 1024 * 1024 * 1024;
    p.nic_bandwidth_bytes_per_ns = 1.5;
    p.idle_watts = 90.0;
    p.busy_watts = 280.0;
    return p;
}

} // namespace dri::dc
