/**
 * @file
 * Named-blob workspace, the Caffe2 execution context analogue. Operators
 * read and write blobs by name; a blob is either a dense Tensor or a sparse
 * IndexList (the (indices, lengths) pair consumed by SLS operators).
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "oracle/embedding_table.h"
#include "oracle/tensor.h"

namespace dri::graph {

/**
 * Sparse feature input in SparseLengthsSum layout: segment s consumes
 * lengths[s] consecutive entries of indices. For recommendation, segments
 * are batch items and indices are embedding-row ids.
 */
struct IndexList
{
    std::vector<std::int64_t> indices;
    std::vector<std::int32_t> lengths;

    std::int64_t totalLookups() const
    {
        return static_cast<std::int64_t>(indices.size());
    }
    std::int64_t segments() const
    {
        return static_cast<std::int64_t>(lengths.size());
    }
};

/** A blob is a dense tensor or a sparse index list. */
using Blob = std::variant<tensor::Tensor, IndexList>;

/**
 * Mutable name -> blob map plus a read-only registry of embedding tables.
 * Tables are shared (not owned) because shards of a distributed model view
 * disjoint subsets of one table set.
 */
class Workspace
{
  public:
    Workspace() = default;

    /** Create-or-replace a dense blob. */
    tensor::Tensor &createTensor(const std::string &name);
    /** Create-or-replace a sparse blob. */
    IndexList &createIndexList(const std::string &name);

    /** Typed access; aborts (assert) if missing or wrong type. */
    tensor::Tensor &tensorBlob(const std::string &name);
    IndexList &indexListBlob(const std::string &name);

    /** Register an embedding table under a name. */
    void addTable(const std::string &name,
                  std::shared_ptr<tensor::VirtualEmbeddingTable> table);
    const tensor::VirtualEmbeddingTable &table(const std::string &name) const;

    /** Untyped access (blob must exist). */
    const Blob &blob(const std::string &name) const;
    /** Create-or-replace with an existing blob value. */
    void setBlob(const std::string &name, Blob value);

    std::size_t blobCount() const { return blobs_.size(); }

  private:
    std::map<std::string, Blob> blobs_;
    std::map<std::string, std::shared_ptr<tensor::VirtualEmbeddingTable>>
        tables_;
};

} // namespace dri::graph
