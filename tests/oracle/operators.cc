#include "oracle/operators.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "oracle/kernels.h"

namespace dri::graph {

Operator::Operator(std::string type, std::vector<std::string> inputs,
                   std::vector<std::string> outputs)
    : type_(std::move(type)), inputs_(std::move(inputs)),
      outputs_(std::move(outputs))
{
}

FullyConnectedOp::FullyConnectedOp(const std::string &in,
                                   const std::string &weight,
                                   const std::string &bias,
                                   const std::string &out)
    : Operator("FC", {in, weight, bias}, {out})
{
}

void
FullyConnectedOp::run(ExecContext &ctx)
{
    const auto &in = ctx.ws.tensorBlob(inputs()[0]);
    const auto &weight = ctx.ws.tensorBlob(inputs()[1]);
    const auto &bias = ctx.ws.tensorBlob(inputs()[2]);
    auto &out = ctx.ws.createTensor(outputs()[0]);
    tensor::fullyConnected(in, weight, bias, out);
}

ReluOp::ReluOp(const std::string &blob) : Operator("Relu", {blob}, {blob}) {}

void
ReluOp::run(ExecContext &ctx)
{
    tensor::reluInPlace(ctx.ws.tensorBlob(inputs()[0]));
}

SigmoidOp::SigmoidOp(const std::string &blob)
    : Operator("Sigmoid", {blob}, {blob})
{
}

void
SigmoidOp::run(ExecContext &ctx)
{
    tensor::sigmoidInPlace(ctx.ws.tensorBlob(inputs()[0]));
}

ConcatOp::ConcatOp(std::vector<std::string> inputs, const std::string &out)
    : Operator("Concat", std::move(inputs), {out})
{
}

void
ConcatOp::run(ExecContext &ctx)
{
    std::vector<const tensor::Tensor *> srcs;
    srcs.reserve(inputs().size());
    for (const auto &name : inputs())
        srcs.push_back(&ctx.ws.tensorBlob(name));
    tensor::Tensor result;
    tensor::concatColumns(srcs, result);
    ctx.ws.createTensor(outputs()[0]) = std::move(result);
}

DotInteractionOp::DotInteractionOp(std::vector<std::string> blocks,
                                   const std::string &out)
    : Operator("DotInteraction", std::move(blocks), {out})
{
}

void
DotInteractionOp::run(ExecContext &ctx)
{
    std::vector<const tensor::Tensor *> srcs;
    srcs.reserve(inputs().size());
    for (const auto &name : inputs())
        srcs.push_back(&ctx.ws.tensorBlob(name));
    tensor::Tensor result;
    tensor::dotInteraction(srcs, result);
    ctx.ws.createTensor(outputs()[0]) = std::move(result);
}

SparseLengthsSumOp::SparseLengthsSumOp(const std::string &table,
                                       const std::string &ids,
                                       const std::string &out)
    : Operator("SparseLengthsSum", {ids}, {out}), table_(table)
{
}

void
SparseLengthsSumOp::run(ExecContext &ctx)
{
    const auto &ids = ctx.ws.indexListBlob(inputs()[0]);
    const auto &table = ctx.ws.table(table_);
    tensor::Tensor result;
    table.sls(ids.indices, ids.lengths, result);
    ctx.ws.createTensor(outputs()[0]) = std::move(result);
}

SplitIndicesOp::SplitIndicesOp(const std::string &ids,
                               std::vector<std::string> outputs)
    : Operator("SplitIndices", {ids}, std::move(outputs))
{
}

void
SplitIndicesOp::run(ExecContext &ctx)
{
    // Copy the input first: an output name may alias the input blob, and
    // createIndexList invalidates references into the workspace.
    const IndexList src = ctx.ws.indexListBlob(inputs()[0]);
    const auto ways = static_cast<std::int64_t>(outputs().size());
    if (ways == 0)
        throw std::invalid_argument("SplitIndices: no output pieces");

    std::vector<IndexList> parts(static_cast<std::size_t>(ways));
    for (auto &p : parts)
        p.lengths.assign(src.lengths.size(), 0);

    std::size_t cursor = 0;
    for (std::size_t seg = 0; seg < src.lengths.size(); ++seg) {
        const auto len = static_cast<std::size_t>(src.lengths[seg]);
        for (std::size_t k = 0; k < len; ++k) {
            const std::int64_t idx = src.indices[cursor++];
            if (idx < 0)
                throw std::out_of_range("SplitIndices: negative index " +
                                        std::to_string(idx));
            const auto shard = static_cast<std::size_t>(idx % ways);
            parts[shard].indices.push_back(idx);
            ++parts[shard].lengths[seg];
        }
    }
    for (std::size_t s = 0; s < parts.size(); ++s)
        ctx.ws.createIndexList(outputs()[s]) = std::move(parts[s]);
}

SumOp::SumOp(std::vector<std::string> inputs, const std::string &out)
    : Operator("Sum", std::move(inputs), {out})
{
}

void
SumOp::run(ExecContext &ctx)
{
    std::vector<const tensor::Tensor *> srcs;
    srcs.reserve(inputs().size());
    for (const auto &name : inputs())
        srcs.push_back(&ctx.ws.tensorBlob(name));
    tensor::Tensor result;
    tensor::sumTensors(srcs, result);
    ctx.ws.createTensor(outputs()[0]) = std::move(result);
}

RpcRequestOp::RpcRequestOp(int shard_id, std::string remote_net,
                           std::string handle,
                           std::vector<std::string> inputs,
                           std::vector<std::string> outputs)
    : Operator("RpcRequest", std::move(inputs), std::move(outputs)),
      shard_id_(shard_id), remote_net_(std::move(remote_net)),
      handle_(std::move(handle))
{
}

void
RpcRequestOp::run(ExecContext &ctx)
{
    assert(ctx.remote && "RpcRequestOp requires a RemoteExecutor");
    ctx.remote->beginCall(shard_id_, remote_net_, handle_, ctx.ws, inputs(),
                          outputs());
}

RpcWaitOp::RpcWaitOp(std::vector<std::string> handles)
    : Operator("RpcWait", std::move(handles), {})
{
}

void
RpcWaitOp::run(ExecContext &ctx)
{
    assert(ctx.remote && "RpcWaitOp requires a RemoteExecutor");
    for (const auto &h : inputs())
        ctx.remote->wait(h);
}


// -- clone() implementations -------------------------------------------------

std::unique_ptr<Operator>
FullyConnectedOp::clone() const
{
    return std::make_unique<FullyConnectedOp>(inputs()[0], inputs()[1],
                                              inputs()[2], outputs()[0]);
}

std::unique_ptr<Operator>
ReluOp::clone() const
{
    return std::make_unique<ReluOp>(inputs()[0]);
}

std::unique_ptr<Operator>
SigmoidOp::clone() const
{
    return std::make_unique<SigmoidOp>(inputs()[0]);
}

std::unique_ptr<Operator>
ConcatOp::clone() const
{
    return std::make_unique<ConcatOp>(inputs(), outputs()[0]);
}

std::unique_ptr<Operator>
DotInteractionOp::clone() const
{
    return std::make_unique<DotInteractionOp>(inputs(), outputs()[0]);
}

std::unique_ptr<Operator>
SparseLengthsSumOp::clone() const
{
    return std::make_unique<SparseLengthsSumOp>(table_, inputs()[0],
                                                outputs()[0]);
}

std::unique_ptr<Operator>
SplitIndicesOp::clone() const
{
    return std::make_unique<SplitIndicesOp>(inputs()[0], outputs());
}

std::unique_ptr<Operator>
SumOp::clone() const
{
    return std::make_unique<SumOp>(inputs(), outputs()[0]);
}

std::unique_ptr<Operator>
RpcRequestOp::clone() const
{
    return std::make_unique<RpcRequestOp>(shard_id_, remote_net_, handle_,
                                          inputs(), outputs());
}

std::unique_ptr<Operator>
RpcWaitOp::clone() const
{
    return std::make_unique<RpcWaitOp>(inputs());
}

} // namespace dri::graph
