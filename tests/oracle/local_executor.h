/**
 * @file
 * Functional RemoteExecutor: executes sparse-shard nets synchronously in
 * process, with one isolated workspace per shard. This is the correctness
 * backend — it proves the partitioned model computes bit-identical outputs
 * to the singular model — while the DES serving engine models timing.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "oracle/executor.h"
#include "oracle/partitioner.h"

namespace dri::core {

/** In-process sparse-shard service. */
class LocalRemoteExecutor : public graph::RemoteExecutor
{
  public:
    /**
     * @param dm partitioned model whose shard nets will be served. The
     *           DistributedModel must outlive the executor.
     */
    explicit LocalRemoteExecutor(const DistributedModel &dm);

    void beginCall(int shard_id, const std::string &remote_net,
                   const std::string &handle, graph::Workspace &ws,
                   const std::vector<std::string> &inputs,
                   const std::vector<std::string> &outputs) override;

    void wait(const std::string &handle) override;

    /** Calls served so far (for tests and compute accounting). */
    std::size_t callCount() const { return calls_; }

  private:
    const DistributedModel &dm_;
    /** Isolated per-shard workspaces (tables registered once). */
    std::map<int, graph::Workspace> shard_ws_;
    std::size_t calls_ = 0;
};

} // namespace dri::core
