/**
 * @file
 * Operator set for the mini ML framework. Mirrors the Caffe2 operators the
 * paper's models execute: fully-connected stacks, activations, tensor
 * transforms, the SparseLengthsSum (SLS) family, and the custom asynchronous
 * RPC operators that distributed inference inserts (Section III).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/spec_types.h"
#include "oracle/workspace.h"

namespace dri::graph {

class RemoteExecutor;

/**
 * Execution-scoped services an operator may need: the workspace plus the
 * remote executor that RPC operators dispatch through.
 */
struct ExecContext
{
    Workspace &ws;
    RemoteExecutor *remote = nullptr; //!< required only by RPC ops
};

/** Abstract operator: named inputs -> named outputs over a workspace. */
class Operator
{
  public:
    Operator(std::string type, std::vector<std::string> inputs,
             std::vector<std::string> outputs);
    virtual ~Operator() = default;

    /** Execute functionally against the context's workspace. */
    virtual void run(ExecContext &ctx) = 0;

    virtual model::OpClass opClass() const = 0;

    /** Deep copy, used by the model partitioner for net surgery. */
    virtual std::unique_ptr<Operator> clone() const = 0;

    const std::string &type() const { return type_; }
    const std::vector<std::string> &inputs() const { return inputs_; }
    const std::vector<std::string> &outputs() const { return outputs_; }

  private:
    std::string type_;
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
};

/** out = in * W^T + b. Weights/bias are workspace blobs. */
class FullyConnectedOp : public Operator
{
  public:
    FullyConnectedOp(const std::string &in, const std::string &weight,
                     const std::string &bias, const std::string &out);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Dense;
    }
    std::unique_ptr<Operator> clone() const override;
};

/** In-place ReLU. */
class ReluOp : public Operator
{
  public:
    explicit ReluOp(const std::string &blob);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Activations;
    }
    std::unique_ptr<Operator> clone() const override;
};

/** In-place sigmoid (final CTR head). */
class SigmoidOp : public Operator
{
  public:
    explicit SigmoidOp(const std::string &blob);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Activations;
    }
    std::unique_ptr<Operator> clone() const override;
};

/** Concatenate inputs along the feature dimension. */
class ConcatOp : public Operator
{
  public:
    ConcatOp(std::vector<std::string> inputs, const std::string &out);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::MemoryTransform;
    }
    std::unique_ptr<Operator> clone() const override;
};

/** DLRM dot-product feature interaction across equally sized blocks. */
class DotInteractionOp : public Operator
{
  public:
    DotInteractionOp(std::vector<std::string> blocks, const std::string &out);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::FeatureTransform;
    }
    std::unique_ptr<Operator> clone() const override;
};

/**
 * SparseLengthsSum: pool embedding rows of `table` selected by the input
 * IndexList into a [segments, dim] tensor.
 */
class SparseLengthsSumOp : public Operator
{
  public:
    SparseLengthsSumOp(const std::string &table, const std::string &ids,
                       const std::string &out);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Sparse;
    }
    std::unique_ptr<Operator> clone() const override;

    const std::string &tableName() const { return table_; }

  private:
    std::string table_;
};

/**
 * Split an IndexList into `ways` shards by row id modulus (the paper's
 * hashing function for huge-table row partitioning). Output s receives the
 * indices with index % ways == s, preserving segment structure. run()
 * throws std::invalid_argument with no outputs and std::out_of_range on a
 * negative index.
 */
class SplitIndicesOp : public Operator
{
  public:
    SplitIndicesOp(const std::string &ids, std::vector<std::string> outputs);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Hash;
    }
    std::unique_ptr<Operator> clone() const override;

    std::size_t ways() const { return outputs().size(); }
};

/** Elementwise sum of same-shaped tensors (combines row-split partials). */
class SumOp : public Operator
{
  public:
    SumOp(std::vector<std::string> inputs, const std::string &out);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::ScaleClip;
    }
    std::unique_ptr<Operator> clone() const override;
};

/**
 * Asynchronous RPC dispatch to a sparse shard (Section III-A2). Functionally
 * the call is recorded against the RemoteExecutor; the paired RpcWaitOp
 * blocks on completion and materializes the outputs. In the DES serving
 * path, dispatch/wait timing is modelled by the serving engine.
 */
class RpcRequestOp : public Operator
{
  public:
    /**
     * @param shard_id   Target sparse shard.
     * @param remote_net Net to invoke on the shard.
     * @param handle     Blob name used to correlate with the wait op.
     */
    RpcRequestOp(int shard_id, std::string remote_net, std::string handle,
                 std::vector<std::string> inputs,
                 std::vector<std::string> outputs);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Rpc;
    }
    std::unique_ptr<Operator> clone() const override;

    int shardId() const { return shard_id_; }
    const std::string &remoteNet() const { return remote_net_; }
    const std::string &handle() const { return handle_; }

  private:
    int shard_id_;
    std::string remote_net_;
    std::string handle_;
};

/** Completion barrier for one or more outstanding RPC handles. */
class RpcWaitOp : public Operator
{
  public:
    explicit RpcWaitOp(std::vector<std::string> handles);
    void run(ExecContext &ctx) override;
    model::OpClass opClass() const override
    {
        return model::OpClass::Rpc;
    }
    std::unique_ptr<Operator> clone() const override;

    const std::vector<std::string> &handles() const { return inputs(); }
};

/**
 * Service interface RPC operators dispatch through. The functional
 * implementation (LocalRemoteExecutor in oracle/local_executor) executes
 * shard nets synchronously; the DES serving engine models the asynchronous
 * timing.
 */
class RemoteExecutor
{
  public:
    virtual ~RemoteExecutor() = default;

    /**
     * Begin an asynchronous call of `remote_net` on `shard_id`. Input blobs
     * are read from `ws`; outputs must be materialized into `ws` by the time
     * wait(handle) returns.
     */
    virtual void beginCall(int shard_id, const std::string &remote_net,
                           const std::string &handle, Workspace &ws,
                           const std::vector<std::string> &inputs,
                           const std::vector<std::string> &outputs) = 0;

    /** Block until the given handle's outputs are available. */
    virtual void wait(const std::string &handle) = 0;
};

} // namespace dri::graph
