/**
 * @file
 * Shared sampling primitives for discrete optimizers. The Bayesian
 * warm-up and the random-search baseline must draw configurations with
 * the *same* RNG call pattern and deduplication set so their
 * trajectories stay comparable (and the batched paths bit-identical to
 * the serial ones) — keeping the definitions in one place is what
 * guarantees that.
 */
#ifndef CAFQA_OPT_DISCRETE_SAMPLING_HPP
#define CAFQA_OPT_DISCRETE_SAMPLING_HPP

#include <unordered_set>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace cafqa {

struct DiscreteSpace;

/** Order-dependent configuration hash used for sample deduplication. */
inline std::size_t
config_hash(const std::vector<int>& config)
{
    std::size_t h = kHashSeed;
    for (const int v : config) {
        h = hash_mix(h, static_cast<std::uint64_t>(v));
    }
    return h;
}

/** `config_hash` as a hasher object. */
struct ConfigHasher
{
    std::size_t operator()(const std::vector<int>& config) const
    {
        return config_hash(config);
    }
};

/**
 * Set of configurations keyed on the configuration itself: the hash
 * only picks the bucket, so two configurations whose hashes collide
 * are still told apart. Every discrete dedup site (Bayesian `seen`,
 * random and exhaustive search) uses it.
 * The hasher is a parameter so tests can force collisions.
 */
template <class Hasher = ConfigHasher>
using BasicConfigSet = std::unordered_set<std::vector<int>, Hasher>;
using ConfigSet = BasicConfigSet<>;

/** Uniform configuration draw: one `uniform_int` call per parameter,
 *  in parameter order. */
std::vector<int> random_config(const DiscreteSpace& space, Rng& rng);

} // namespace cafqa

#endif // CAFQA_OPT_DISCRETE_SAMPLING_HPP
