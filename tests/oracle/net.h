/**
 * @file
 * NetDef: an ordered operator list with declared external inputs/outputs,
 * the unit of sharding in distributed inference. Models own one or more
 * nets (DRM1/DRM2 have a user net and a content net executed sequentially;
 * DRM3 has one net — Section V-A).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "oracle/operators.h"

namespace dri::graph {

/** An executable operator sequence. */
class NetDef
{
  public:
    explicit NetDef(std::string name) : name_(std::move(name)) {}

    NetDef(const NetDef &) = delete;
    NetDef &operator=(const NetDef &) = delete;
    NetDef(NetDef &&) = default;
    NetDef &operator=(NetDef &&) = default;

    const std::string &name() const { return name_; }

    /** Append an operator; returns a borrowed pointer for inspection. */
    Operator *add(std::unique_ptr<Operator> op);

    /** Convenience: construct T in place and append it. */
    template <typename T, typename... Args>
    T *
    emplace(Args &&...args)
    {
        auto op = std::make_unique<T>(std::forward<Args>(args)...);
        T *raw = op.get();
        add(std::move(op));
        return raw;
    }

    const std::vector<std::unique_ptr<Operator>> &ops() const { return ops_; }
    std::size_t size() const { return ops_.size(); }

    void declareInput(const std::string &blob) { inputs_.push_back(blob); }
    void declareOutput(const std::string &blob) { outputs_.push_back(blob); }
    const std::vector<std::string> &externalInputs() const { return inputs_; }
    const std::vector<std::string> &externalOutputs() const
    {
        return outputs_;
    }

    /** Count operators in the given class. */
    std::size_t countClass(model::OpClass c) const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Operator>> ops_;
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
};

} // namespace dri::graph
