#include "rpc/result_cache.h"

namespace dri::rpc {

namespace {

/** Index slots allocated when an enabled cache is built. */
constexpr std::size_t kMinIndexSlots = 16;

} // namespace

ResultCache::ResultCache(ResultCacheConfig config) : config_(config)
{
    if (config_.enabled) {
        index_.resize(kMinIndexSlots);
        mask_ = kMinIndexSlots - 1;
    }
}

bool
ResultCache::lookup(const Key &key, sim::SimTime now)
{
    if (!config_.enabled)
        return false;
    ++stats_.lookups;
    const std::size_t slot = probe(key, KeyHash{}(key));
    const std::uint32_t idx = index_[slot].node;
    if (idx == kNil) {
        ++stats_.misses;
        return false;
    }
    if (config_.ttl_ns > 0 &&
        now - nodes_[idx].inserted > config_.ttl_ns) {
        // Stale: the embedding snapshot it was pooled from has been
        // refreshed since.
        eraseNode(idx, slot);
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
    const std::uint64_t hash = KeyHash{}(key);
    std::size_t slot = probe(key, hash);
    if (index_[slot].node != kNil) {
        // Refresh in place (a concurrent miss raced this insertion).
        const std::uint32_t idx = index_[slot].node;
        Node &n = nodes_[idx];
        used_bytes_ += response_bytes - n.bytes;
        n.bytes = response_bytes;
        n.inserted = now;
        touch(idx);
    } else {
        if ((entries() + 1) * 8 > index_.size() * 3) {
            growIndex();
            slot = probe(key, hash);
        }
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
        n.hash = hash;
        n.bytes = response_bytes;
        n.inserted = now;
        pushFront(idx);
        index_[slot] = IndexSlot{hash, idx};
        used_bytes_ += response_bytes;
        ++stats_.insertions;
    }
    while (used_bytes_ > kResultCacheCapacityBytes && tail_ != kNil) {
        eraseNode(tail_, slotOf(tail_));
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
    for (IndexSlot &s : index_)
        s = IndexSlot{};
    used_bytes_ = 0;
}

std::size_t
ResultCache::probe(const Key &key, std::uint64_t hash) const
{
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const IndexSlot &s = index_[i];
        if (s.node == kNil || (s.hash == hash && nodes_[s.node].key == key))
            return i;
    }
}

std::size_t
ResultCache::slotOf(std::uint32_t idx) const
{
    std::size_t i = nodes_[idx].hash & mask_;
    while (index_[i].node != idx)
        i = (i + 1) & mask_;
    return i;
}

void
ResultCache::eraseSlot(std::size_t i)
{
    // Pull each follower of the probe chain that may move back into the
    // hole: one whose home bucket is not cyclically inside (hole, k].
    std::size_t hole = i;
    for (std::size_t k = (i + 1) & mask_; index_[k].node != kNil;
         k = (k + 1) & mask_) {
        const std::size_t home = index_[k].hash & mask_;
        if (((k - home) & mask_) >= ((k - hole) & mask_)) {
            index_[hole] = index_[k];
            hole = k;
        }
    }
    index_[hole] = IndexSlot{};
}

void
ResultCache::growIndex()
{
    std::vector<IndexSlot> old(index_.size() * 2);
    old.swap(index_);
    mask_ = index_.size() - 1;
    for (const IndexSlot &s : old) {
        if (s.node == kNil)
            continue;
        std::size_t i = s.hash & mask_;
        while (index_[i].node != kNil)
            i = (i + 1) & mask_;
        index_[i] = s;
    }
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
ResultCache::eraseNode(std::uint32_t idx, std::size_t slot)
{
    used_bytes_ -= nodes_[idx].bytes;
    eraseSlot(slot);
    unlink(idx);
    free_.push_back(idx);
}

} // namespace dri::rpc
