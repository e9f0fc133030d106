#include "oracle/partitioner.h"

#include <cassert>
#include <stdexcept>

namespace dri::core {

std::string
shardNetName(int shard_id, int net_id)
{
    return "shard" + std::to_string(shard_id) + "_net" +
           std::to_string(net_id);
}

std::string
splitIdsBlobName(const model::TableSpec &table, int piece)
{
    return model::idsBlobName(table) + "_part" + std::to_string(piece);
}

std::string
splitEmbBlobName(const model::TableSpec &table, int piece)
{
    return model::embBlobName(table) + "_part" + std::to_string(piece);
}

const graph::NetDef *
DistributedModel::findShardNet(int shard_id, const std::string &name) const
{
    auto it = shard_nets.find(shard_id);
    if (it == shard_nets.end())
        return nullptr;
    for (const auto &net : it->second)
        if (net.name() == name)
            return &net;
    return nullptr;
}

namespace {

/** Clone an entire net. */
graph::NetDef
cloneNet(const graph::NetDef &src)
{
    graph::NetDef out(src.name());
    for (const auto &op : src.ops())
        out.add(op->clone());
    for (const auto &b : src.externalInputs())
        out.declareInput(b);
    for (const auto &b : src.externalOutputs())
        out.declareOutput(b);
    return out;
}

} // namespace

DistributedModel
partitionModel(const model::BuiltModel &built, const ShardingPlan &plan)
{
    DistributedModel dm;
    dm.base = &built;
    dm.plan = &plan;
    assert(built.spec);
    const model::ModelSpec &spec = *built.spec;
    std::string error;
    if (!plan.validate(spec, &error))
        throw std::invalid_argument("partitionModel: sharding plan: " +
                                    error);

    if (plan.isSingular()) {
        for (const auto &net : built.nets)
            dm.main_nets.push_back(cloneNet(net));
        return dm;
    }

    const auto fanout = fanoutGroups(spec, plan);
    // One blob name per row-split piece of `t`, in piece order.
    const auto pieceBlobs = [&](const model::TableSpec &t, auto name) {
        std::vector<std::string> parts;
        for (std::size_t p = 0; p < plan.assignmentFor(t.id).ways(); ++p)
            parts.push_back(name(t, static_cast<int>(p)));
        return parts;
    };
    for (std::size_t ni = 0; ni < built.nets.size(); ++ni) {
        const graph::NetDef &src = built.nets[ni];
        const int net_id = spec.nets[ni].id;
        std::vector<const model::TableSpec *> split_tables;
        for (const auto &t : spec.tables)
            if (t.net_id == net_id && plan.assignmentFor(t.id).isSplit())
                split_tables.push_back(&t);

        // Partition the net's ops: SLS ops move to shards, everything else
        // stays. The builder emits all SLS ops contiguously, so the main
        // net keeps a single fan-out/join point.
        graph::NetDef main_net(src.name());
        for (const auto &b : src.externalInputs())
            main_net.declareInput(b);
        for (const auto &b : src.externalOutputs())
            main_net.declareOutput(b);

        // Walk the original ops. Ops before the first SLS are "bottom";
        // at the first SLS, emit splits + RPC fan-out + wait + partial
        // sums; remaining non-SLS ops are "top".
        bool fanout_emitted = false;
        for (const auto &op : src.ops()) {
            const bool is_sls =
                dynamic_cast<const graph::SparseLengthsSumOp *>(op.get()) !=
                nullptr;
            if (!is_sls) {
                main_net.add(op->clone());
                continue;
            }
            if (fanout_emitted)
                continue;
            fanout_emitted = true;

            // 1. Split index lists of row-split tables.
            for (const auto *t : split_tables)
                main_net.emplace<graph::SplitIndicesOp>(
                    model::idsBlobName(*t), pieceBlobs(*t, splitIdsBlobName));

            // 2. One RPC request and one shard net per fan-out group.
            std::vector<std::string> handles;
            for (const auto &g : fanout[ni]) {
                graph::NetDef shard_net(shardNetName(g.shard, net_id));
                std::vector<std::string> req_inputs;
                std::vector<std::string> req_outputs;
                const auto lookup = [&](const model::TableSpec &t,
                                        const std::string &ids,
                                        const std::string &emb) {
                    shard_net.declareInput(ids);
                    shard_net.emplace<graph::SparseLengthsSumOp>(t.name, ids,
                                                                 emb);
                    shard_net.declareOutput(emb);
                    req_inputs.push_back(ids);
                    req_outputs.push_back(emb);
                };
                for (int tid : g.whole_tables) {
                    const auto &t = spec.tables[static_cast<std::size_t>(tid)];
                    lookup(t, model::idsBlobName(t), model::embBlobName(t));
                }
                for (const auto &piece : g.pieces) {
                    const auto &t =
                        spec.tables[static_cast<std::size_t>(piece.table)];
                    lookup(t, splitIdsBlobName(t, piece.piece),
                           splitEmbBlobName(t, piece.piece));
                }
                const std::string handle =
                    "h_net" + std::to_string(net_id) + "_s" +
                    std::to_string(g.shard);
                main_net.emplace<graph::RpcRequestOp>(
                    g.shard, shard_net.name(), handle, req_inputs,
                    req_outputs);
                handles.push_back(handle);
                dm.shard_nets[g.shard].push_back(std::move(shard_net));
            }

            // 3. Join.
            main_net.emplace<graph::RpcWaitOp>(handles);

            // 4. Combine row-split partial sums.
            for (const auto *t : split_tables)
                main_net.emplace<graph::SumOp>(
                    pieceBlobs(*t, splitEmbBlobName), model::embBlobName(*t));
        }
        dm.main_nets.push_back(std::move(main_net));
    }
    return dm;
}

} // namespace dri::core
