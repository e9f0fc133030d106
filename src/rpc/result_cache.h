/**
 * @file
 * Main-shard pooled-result cache: memoize whole sparse-RPC responses.
 *
 * Row-level caches (src/cache) cut the cost of a gather on the shard that
 * executes it; the pooled-result cache removes the RPC altogether. The
 * main shard keys each fan-out request by (net, table group, batch
 * signature) — the group's identity plus the batch shape that determines
 * the pooled SLS response — and on a hit serves the pooled vectors from
 * local memory: no serialization, no network, no remote queueing, no
 * remote gather. Under production traffic the same ranking contexts
 * recur within short horizons, so hit rates are workload-given rather
 * than policy-tuned.
 *
 * Staleness: embedding tables are periodically refreshed by training.
 * Entries therefore carry a TTL (config.ttl_ns) and the owner can drop
 * everything at a refresh boundary via invalidate() — the hook
 * core::ServingSimulation::invalidateResultCache() exposes.
 *
 * Like the row caches this is a *simulation* cache: it tracks identities
 * and byte sizes, not payloads.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "stats/hash.h"
#include "stats/list_arena.h"

namespace dri::rpc {

/** Byte budget over cached pooled-response payloads. */
inline constexpr std::int64_t kResultCacheCapacityBytes = 64LL << 20;
static_assert(kResultCacheCapacityBytes > 0);

/** Pooled-result cache configuration (off by default). */
struct ResultCacheConfig
{
    bool enabled = false;
    /**
     * Entry lifetime on the simulation clock; 0 = no expiry. Models the
     * embedding-refresh staleness bound: a pooled result computed from
     * the previous snapshot must not outlive the refresh interval.
     */
    sim::Duration ttl_ns = 0;
};

/** Hit/miss/byte accounting of one simulation run. */
struct ResultCacheStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t expirations = 0; //!< entries dropped by TTL at lookup
    std::uint64_t evictions = 0;   //!< entries dropped by the byte budget
    std::uint64_t invalidations = 0;
    /** Response bytes served locally instead of re-fetched over RPC. */
    std::int64_t bytes_saved = 0;

    double
    hitRate() const
    {
        return lookups > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
    }
};

/**
 * Signature of one sparse fan-out request: the batch shape routed at a
 * group (item count + pooled lookup count). Two batches with equal
 * signatures at the same (net, group) produce the same pooled response
 * under a fixed embedding snapshot, which is what the TTL bounds.
 */
inline std::uint64_t
resultSignature(std::int64_t batch_items, std::int64_t lookups)
{
    // splitmix64 over the packed shape; collisions across distinct
    // shapes are astronomically unlikely at simulation scales.
    return stats::mix64(static_cast<std::uint64_t>(batch_items) *
                            0x9e3779b97f4a7c15ULL ^
                        static_cast<std::uint64_t>(lookups));
}

/**
 * Content-addressed signature: the shape signature folded with the
 * request's feature-vector hash (workload::Request::content_hash) and
 * the batch's index within the request's wave split. Identical feature
 * vectors across users share entries (same content, same split => same
 * keys); distinct vectors of equal shape do not. A zero content hash
 * (hand-built requests with no content identity) degrades to the
 * shape-only signature, preserving the pre-content-addressing sharing
 * semantics.
 */
inline std::uint64_t
resultSignature(std::int64_t batch_items, std::int64_t lookups,
                std::uint64_t content_hash, int batch_id)
{
    const std::uint64_t shape = resultSignature(batch_items, lookups);
    if (content_hash == 0)
        return shape; // no content identity: legacy shape-only keying
    // Fold the request's content identity and the batch's position in
    // its wave split into the signature: batch b of two content-equal
    // requests covers the same item slice (same key), while two distinct
    // feature vectors of equal shape never alias.
    return stats::mix64(
        shape ^ stats::mix64(content_hash +
                             static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(batch_id))));
}

/** LRU + TTL cache of pooled sparse responses, keyed per (net, group). */
class ResultCache
{
  public:
    explicit ResultCache(ResultCacheConfig config);

    struct Key
    {
        int net = 0;
        int group = 0;
        std::uint64_t signature = 0;

        bool
        operator==(const Key &o) const
        {
            return net == o.net && group == o.group &&
                   signature == o.signature;
        }
    };

    /**
     * Hash over all three key fields via mix64 chaining. An earlier
     * shift-packing scheme (`signature ^ (net << 40) ^ (group << 20)`)
     * collided structurally before any mixing happened: group occupied
     * bits 20..51 and net bits 40..63, so e.g. (net=1, group=0) and
     * (net=0, group=2^20) XOR-packed to the same word for every
     * signature, and group ids with bit 20+k set aliased net bit k.
     * Chaining each field through a full finalizer round leaves no
     * algebraic relation between key fields and hash collisions.
     */
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t h = stats::mix64(k.signature);
            h = stats::mix64(
                h ^ (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(k.net)) |
                     (static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(k.group))
                      << 32)));
            return static_cast<std::size_t>(h);
        }
    };

    /**
     * Probe for a fresh entry at simulated time `now`; a stale entry is
     * dropped and reported as a miss. On a hit the entry's recency is
     * bumped and its response bytes are credited to bytes_saved.
     */
    bool lookup(const Key &key, sim::SimTime now);

    /**
     * Memoize a pooled response observed at `now` (no-op if disabled).
     * `dispatch_epoch` is the epoch() the caller read when it DISPATCHED
     * the RPC: a response computed from the pre-invalidation embedding
     * snapshot (its dispatch epoch predates an invalidate()) is dropped
     * instead of repopulating the cache with stale pooled vectors.
     */
    void insert(const Key &key, std::int64_t response_bytes,
                sim::SimTime now, std::uint64_t dispatch_epoch);

    /** Drop everything — the embedding-refresh invalidation hook. */
    void invalidate();

    /**
     * Snapshot generation: bumped by every invalidate(). Read at RPC
     * dispatch and passed back to insert() so in-flight responses cannot
     * leak a stale snapshot past an invalidation.
     */
    std::uint64_t epoch() const { return epoch_; }

    const ResultCacheStats &stats() const { return stats_; }
    bool enabled() const { return config_.enabled; }
    std::size_t entries() const { return lru_.size; }
    std::int64_t usedBytes() const { return used_bytes_; }

  private:
    /** One cached entry: a node of the recency list over entries_. */
    struct Entry
    {
        Key key;
        std::uint64_t hash = 0; //!< KeyHash of key, computed once
        std::int64_t bytes = 0;
        sim::SimTime inserted = 0;
    };
    using Entries = stats::ListArena<Entry>;
    static constexpr std::uint32_t kNil = Entries::kNil;

    /**
     * One slot of the open-addressing index over the arena: an entry's
     * key hash and its arena index (kNil: empty). Linear probing over a
     * power-of-two table held at load <= 3/8. The stored hash gives a
     * slot's home bucket without re-hashing its key, which is what the
     * backward-shift erase reads for every follower it considers, and
     * filters probes so a key compare (one arena read) happens only on
     * a full 64-bit hash match.
     */
    struct IndexSlot
    {
        std::uint64_t hash = 0;
        std::uint32_t node = kNil;
    };

    /** Slot holding `key`, or the empty slot that ends its probe. */
    std::size_t probe(const Key &key, std::uint64_t hash) const;
    /** Slot holding arena entry `idx` (which must be live). */
    std::size_t slotOf(std::uint32_t idx) const;
    /** Empty index slot `i` by backward shift: no tombstones. */
    void eraseSlot(std::size_t i);
    void growIndex();

    /** Drop live entry `idx`, whose index slot is `slot`. */
    void eraseEntry(std::uint32_t idx, std::size_t slot);

    ResultCacheConfig config_;
    ResultCacheStats stats_;
    Entries entries_;
    Entries::List lru_;            //!< front = most recently used
    std::vector<IndexSlot> index_; //!< empty while disabled
    std::size_t mask_ = 0;         //!< index_.size() - 1
    std::int64_t used_bytes_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace dri::rpc
