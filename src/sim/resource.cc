#include "sim/resource.h"

#include <stdexcept>

namespace dri::sim {

Resource::Resource(Engine &engine, std::size_t capacity)
    : engine_(engine), capacity_(capacity)
{
    // Checked in every build type: with no units every acquirer queues
    // forever.
    if (capacity == 0)
        throw std::invalid_argument("Resource: capacity must be > 0");
}

double
Resource::busyIntegral() const
{
    accountTo(engine_.now());
    return busy_integral_;
}

} // namespace dri::sim
