#include "rpc/result_cache.h"

#include "stats/hash.h"

namespace dri::rpc {

ResultCache::ResultCache(ResultCacheConfig config) : config_(config) {}

bool
ResultCache::lookup(const Key &key, sim::SimTime now)
{
    if (!config_.enabled)
        return false;
    ++stats_.lookups;
    const std::uint32_t *slot = entries_.find(key);
    if (slot == nullptr) {
        ++stats_.misses;
        return false;
    }
    const std::uint32_t idx = *slot;
    if (config_.ttl_ns > 0 &&
        now - nodes_[idx].inserted > config_.ttl_ns) {
        // Stale: the embedding snapshot it was pooled from has been
        // refreshed since.
        eraseNode(idx);
        ++stats_.expirations;
        ++stats_.misses;
        return false;
    }
    touch(idx);
    ++stats_.hits;
    stats_.bytes_saved += nodes_[idx].bytes;
    return true;
}

void
ResultCache::insert(const Key &key, std::int64_t response_bytes,
                    sim::SimTime now, std::uint64_t dispatch_epoch)
{
    if (!config_.enabled)
        return;
    if (dispatch_epoch != epoch_)
        return; // pooled from a snapshot invalidated while on the wire
    if (response_bytes > kResultCacheCapacityBytes)
        return; // larger than the whole budget
    const std::uint32_t *slot = entries_.find(key);
    if (slot != nullptr) {
        // Refresh in place (a concurrent miss raced this insertion).
        Node &n = nodes_[*slot];
        used_bytes_ += response_bytes - n.bytes;
        n.bytes = response_bytes;
        n.inserted = now;
        touch(*slot);
    } else {
        std::uint32_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        Node &n = nodes_[idx];
        n.key = key;
        n.bytes = response_bytes;
        n.inserted = now;
        pushFront(idx);
        entries_.insert(key, idx);
        used_bytes_ += response_bytes;
        ++stats_.insertions;
    }
    while (used_bytes_ > kResultCacheCapacityBytes && tail_ != kNil) {
        eraseNode(tail_);
        ++stats_.evictions;
    }
}

void
ResultCache::invalidate()
{
    if (!config_.enabled)
        return;
    ++stats_.invalidations;
    ++epoch_;
    nodes_.clear();
    free_.clear();
    head_ = tail_ = kNil;
    entries_.clear();
    used_bytes_ = 0;
}

void
ResultCache::unlink(std::uint32_t idx)
{
    Node &n = nodes_[idx];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
    n.prev = kNil;
    n.next = kNil;
}

void
ResultCache::pushFront(std::uint32_t idx)
{
    Node &n = nodes_[idx];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kNil)
        tail_ = idx;
}

void
ResultCache::touch(std::uint32_t idx)
{
    if (head_ == idx)
        return;
    unlink(idx);
    pushFront(idx);
}

void
ResultCache::eraseNode(std::uint32_t idx)
{
    used_bytes_ -= nodes_[idx].bytes;
    entries_.erase(nodes_[idx].key);
    unlink(idx);
    free_.push_back(idx);
}

} // namespace dri::rpc
