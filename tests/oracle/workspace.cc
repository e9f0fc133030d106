#include "oracle/workspace.h"

#include <cassert>

namespace dri::graph {

tensor::Tensor &
Workspace::createTensor(const std::string &name)
{
    blobs_[name] = tensor::Tensor();
    return std::get<tensor::Tensor>(blobs_[name]);
}

IndexList &
Workspace::createIndexList(const std::string &name)
{
    blobs_[name] = IndexList();
    return std::get<IndexList>(blobs_[name]);
}

tensor::Tensor &
Workspace::tensorBlob(const std::string &name)
{
    auto it = blobs_.find(name);
    assert(it != blobs_.end() && "missing tensor blob");
    auto *t = std::get_if<tensor::Tensor>(&it->second);
    assert(t && "blob is not a tensor");
    return *t;
}

IndexList &
Workspace::indexListBlob(const std::string &name)
{
    auto it = blobs_.find(name);
    assert(it != blobs_.end() && "missing index-list blob");
    auto *l = std::get_if<IndexList>(&it->second);
    assert(l && "blob is not an index list");
    return *l;
}

void
Workspace::addTable(const std::string &name,
                    std::shared_ptr<tensor::VirtualEmbeddingTable> table)
{
    tables_[name] = std::move(table);
}

const tensor::VirtualEmbeddingTable &
Workspace::table(const std::string &name) const
{
    auto it = tables_.find(name);
    assert(it != tables_.end() && "missing embedding table");
    return *it->second;
}

const Blob &
Workspace::blob(const std::string &name) const
{
    auto it = blobs_.find(name);
    assert(it != blobs_.end() && "missing blob");
    return it->second;
}

void
Workspace::setBlob(const std::string &name, Blob value)
{
    blobs_[name] = std::move(value);
}

} // namespace dri::graph
