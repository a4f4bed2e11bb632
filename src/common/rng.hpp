/**
 * @file
 * Seedable random number generator used by every stochastic component
 * (Bayesian optimization, SPSA, noise sampling, property tests).
 *
 * All CAFQA components take a `Rng&` or an explicit seed instead of using
 * global random state, so every experiment in the bench suite is
 * reproducible bit-for-bit.
 */
#ifndef CAFQA_COMMON_RNG_HPP
#define CAFQA_COMMON_RNG_HPP

#include <cstdint>
#include <random>
#include <vector>

namespace cafqa {

/** Thin wrapper over std::mt19937_64 with convenience draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [lo, hi). */
    double uniform_real(double lo = 0.0, double hi = 1.0);

    /** Standard normal draw. */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Random +1/-1 with equal probability. */
    int rademacher();

    /** Sample k distinct indices from [0, n). */
    std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                        std::size_t k);

    /** The same draws into `out` (resized to k), reusing its storage. */
    void sample_without_replacement(std::size_t n, std::size_t k,
                                    std::vector<std::size_t>& out);

    /** Fisher-Yates shuffle of an index vector [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

    /** Underlying engine, for std distributions. */
    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace cafqa

#endif // CAFQA_COMMON_RNG_HPP
