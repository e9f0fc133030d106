/**
 * @file
 * Shared non-cryptographic hashing primitives. One definition of the
 * splitmix64 finalizer, so the cache-key hashes, admission sketch, and
 * result-cache signatures all mix with the identical, tested constant
 * sequence instead of hand-copied ones, and one FNV-1a accumulator for
 * the ledger and schedule fingerprints.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dri::stats {

/** splitmix64 finalizer: a fast, well-distributed 64-bit bit mixer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * mix64 as a hash functor for integer keys in FlatHashMap, whose
 * power-of-two masking needs well-mixed low bits (std::hash is the
 * identity on integers).
 */
struct Mix64Hash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        return static_cast<std::size_t>(mix64(x));
    }
};

/**
 * FNV-1a over raw bytes: the fingerprint accumulator. add() mixes a
 * value's own bytes, so an int contributes 4 bytes and an int64_t 8; a
 * fingerprint pinned by a committed golden fixes each value's width by
 * the type it passes.
 */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }

    /** A double's bit pattern (not a rounded value). */
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v, "double must be 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }

    void add(std::int64_t v) { bytes(&v, sizeof v); }
    void add(int v) { bytes(&v, sizeof v); }
    void add(bool v) { const char c = v ? 1 : 0; bytes(&c, 1); }
};

} // namespace dri::stats
