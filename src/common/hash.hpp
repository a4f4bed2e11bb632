/**
 * @file
 * The one hash combiner shared by every hashing site in the repository
 * — sample deduplication (`config_hash`), evaluation-cache keys and
 * shard selection, observable identities. Keeping one definition means
 * every site mixes identically, so the combiner lives here rather than
 * being re-derived per module.
 */
#ifndef CAFQA_COMMON_HASH_HPP
#define CAFQA_COMMON_HASH_HPP

#include <cstddef>
#include <cstdint>

namespace cafqa {

/** Conventional starting value for hash_mix chains. */
inline constexpr std::size_t kHashSeed = 0x9e3779b97f4a7c15ull;

/** Fold one word into a running hash (splitmix/boost-combine style). */
inline std::size_t
hash_mix(std::size_t h, std::uint64_t word)
{
    h ^= static_cast<std::size_t>(word) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
    return h;
}

} // namespace cafqa

#endif // CAFQA_COMMON_HASH_HPP
