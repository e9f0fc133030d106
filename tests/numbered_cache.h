/**
 * @file
 * A (table, row) front door for the cache tests (cache_test,
 * cache_v2_property_test): a cache::EmbeddingCache together with the
 * cache::RowNumbering that numbers its rows, so a test can access and
 * probe rows by (table, row) while the cache itself takes only RowRefs.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "cache/embedding_cache.h"

namespace dri::testutil {

/** One cache and one numbering of its row space. */
class NumberedCache
{
  public:
    explicit NumberedCache(std::unique_ptr<cache::EmbeddingCache> cache)
        : cache_(std::move(cache))
    {
    }

    /**
     * EmbeddingCache::access for (table, row), numbered in first-seen
     * order. Throws std::out_of_range outside packRowKey()'s domain.
     */
    bool
    access(int table, std::int64_t row, std::int64_t row_bytes)
    {
        return cache_->access(rows_.number(table, row), row_bytes);
    }

    /** Whether (table, row) is resident; numbers nothing. */
    bool
    contains(int table, std::int64_t row) const
    {
        const auto ref = rows_.find(table, row);
        return ref && cache_->contains(*ref);
    }

    /** The cache, for everything that is not a row. */
    cache::EmbeddingCache *operator->() const { return cache_.get(); }

  private:
    std::unique_ptr<cache::EmbeddingCache> cache_;
    cache::RowNumbering rows_;
};

} // namespace dri::testutil
