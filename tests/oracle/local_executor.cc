#include "oracle/local_executor.h"

#include <cassert>

namespace dri::core {

LocalRemoteExecutor::LocalRemoteExecutor(const DistributedModel &dm) : dm_(dm)
{
    assert(dm.base && dm.base->spec);
    // Register tables into each shard workspace. Registering all tables is
    // harmless (shared pointers) and keeps the executor independent of the
    // plan's placement details; shard nets only reference their own tables.
    for (const auto &kv : dm.shard_nets) {
        graph::Workspace &ws = shard_ws_[kv.first];
        const auto &spec = *dm.base->spec;
        for (std::size_t i = 0; i < dm.base->tables.size(); ++i)
            ws.addTable(spec.tables[i].name, dm.base->tables[i]);
    }
}

void
LocalRemoteExecutor::beginCall(int shard_id, const std::string &remote_net,
                               const std::string &handle,
                               graph::Workspace &ws,
                               const std::vector<std::string> &inputs,
                               const std::vector<std::string> &outputs)
{
    (void)handle;
    const graph::NetDef *net = dm_.findShardNet(shard_id, remote_net);
    assert(net && "unknown shard net");
    auto ws_it = shard_ws_.find(shard_id);
    assert(ws_it != shard_ws_.end());
    graph::Workspace &remote_ws = ws_it->second;

    // Serialize: copy request blobs into the shard workspace. Shards are
    // stateless between calls apart from their immutable tables.
    for (const auto &name : inputs)
        remote_ws.setBlob(name, ws.blob(name));

    graph::Executor executor(nullptr);
    executor.run(*net, remote_ws);

    // Deserialize: copy response blobs back. Synchronous completion means
    // wait() is a no-op.
    for (const auto &name : outputs)
        ws.setBlob(name, remote_ws.blob(name));
    ++calls_;
}

void
LocalRemoteExecutor::wait(const std::string &handle)
{
    (void)handle;
}

} // namespace dri::core
