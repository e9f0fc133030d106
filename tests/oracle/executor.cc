#include "oracle/executor.h"

namespace dri::graph {

void
Executor::run(const NetDef &net, Workspace &ws,
              const OpObserver &observer) const
{
    ExecContext ctx{ws, remote_};
    for (const auto &op : net.ops()) {
        op->run(ctx);
        if (observer)
            observer(*op);
    }
}

} // namespace dri::graph
