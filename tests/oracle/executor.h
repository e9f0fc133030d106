/**
 * @file
 * Sequential net executor. Operators run in order — the paper notes
 * inference nets are executed sequentially because spare cores are consumed
 * by request- and batch-level parallelism, with asynchronous RPC ops as the
 * only exception (Section IV-A).
 */
#pragma once

#include <functional>

#include "oracle/net.h"

namespace dri::graph {

/** Per-operator observation hook (used by tracing and attribution). */
using OpObserver = std::function<void(const Operator &)>;

/** Runs nets functionally over a workspace. */
class Executor
{
  public:
    /** @param remote Required when nets contain RPC ops; may be null. */
    explicit Executor(RemoteExecutor *remote = nullptr) : remote_(remote) {}

    /**
     * Execute every operator of the net in order.
     * @param observer optional callback invoked after each op completes.
     */
    void run(const NetDef &net, Workspace &ws,
             const OpObserver &observer = nullptr) const;

  private:
    RemoteExecutor *remote_;
};

} // namespace dri::graph
