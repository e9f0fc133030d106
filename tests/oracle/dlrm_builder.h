/**
 * @file
 * Functional DLRM construction: turns a ModelSpec into executable
 * graph::NetDefs with real weights and (scaled-down) embedding tables.
 *
 * The builder produces the *singular* (non-distributed) form of Fig. 2a:
 * per net, a bottom dense stack, one SparseLengthsSum per table, dot-product
 * feature interaction, and a top dense stack; successive nets consume the
 * previous net's output (DRM1/DRM2's user net feeds the content net). The
 * core partitioner rewrites these nets into the distributed form of Fig. 2b.
 *
 * Physical scale is independent of the spec's logical scale: tables are
 * materialized with a small common embedding dimension and hashed backing so
 * 200 GB models remain executable in tests.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/model_spec.h"
#include "oracle/net.h"
#include "oracle/workspace.h"

namespace dri::model {

/** Blob-naming conventions shared with the partitioner. */
std::string idsBlobName(const TableSpec &table);
std::string embBlobName(const TableSpec &table);
std::string netOutputBlobName(int net_id);

/** A functional, runnable model. */
struct BuiltModel
{
    const ModelSpec *spec = nullptr;
    /** One executable net per NetSpec, in execution order. */
    std::vector<graph::NetDef> nets;
    /** Table objects indexed by TableSpec::id. */
    std::vector<std::shared_ptr<tensor::VirtualEmbeddingTable>> tables;

    int dense_input_dim = 0;
    int embedding_dim = 0;

    /** Register tables and parameter blobs into a workspace. */
    void prepareWorkspace(graph::Workspace &ws) const;

    /** Name of the model's final output blob. */
    std::string outputBlob() const;

  private:
    friend class DlrmBuilder;
    /** Parameter blobs (weights/biases) to install into workspaces. */
    std::vector<std::pair<std::string, tensor::Tensor>> params_;
};

/** Builds functional models from specifications. */
class DlrmBuilder
{
  public:
    /**
     * @param spec           Model specification (borrowed; must outlive the
     *                       BuiltModel).
     * @param dense_input_dim Width of the dense-feature input.
     * @param embedding_dim  Common physical embedding dimension.
     * @param hidden_dim     Width of dense hidden layers.
     * @param seed           Deterministic parameter/table initialization.
     */
    DlrmBuilder(const ModelSpec &spec, int dense_input_dim = 16,
                int embedding_dim = 8, int hidden_dim = 24,
                std::uint64_t seed = 0x5eed);

    BuiltModel build() const;

  private:
    const ModelSpec &spec_;
    int dense_input_dim_;
    int embedding_dim_;
    int hidden_dim_;
    std::uint64_t seed_;
};

} // namespace dri::model
