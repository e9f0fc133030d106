/**
 * @file
 * Shared non-cryptographic hashing primitives. One definition of the
 * splitmix64 finalizer, so the cache-key hashes, admission sketch, and
 * result-cache signatures all mix with the identical, tested constant
 * sequence instead of hand-copied ones.
 */
#pragma once

#include <cstddef>
#include <cstdint>

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

} // namespace dri::stats
