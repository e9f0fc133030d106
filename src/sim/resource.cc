#include "sim/resource.h"

#include <cassert>

namespace dri::sim {

Resource::Resource(Engine &engine, std::size_t capacity)
    : engine_(engine), capacity_(capacity)
{
    assert(capacity > 0);
}

double
Resource::busyIntegral() const
{
    accountTo(engine_.now());
    return busy_integral_;
}

} // namespace dri::sim
