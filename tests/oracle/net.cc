#include "oracle/net.h"

namespace dri::graph {

Operator *
NetDef::add(std::unique_ptr<Operator> op)
{
    ops_.push_back(std::move(op));
    return ops_.back().get();
}

std::size_t
NetDef::countClass(model::OpClass c) const
{
    std::size_t n = 0;
    for (const auto &op : ops_)
        if (op->opClass() == c)
            ++n;
    return n;
}

} // namespace dri::graph
