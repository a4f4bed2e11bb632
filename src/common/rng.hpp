/**
 * @file
 * Seedable random number generator used by every stochastic component
 * (Bayesian optimization, SPSA, noise sampling, property tests).
 *
 * All CAFQA components take a `Rng&` or an explicit seed instead of using
 * global random state, so every experiment in the bench suite is
 * reproducible bit-for-bit.
 *
 * The engine is an in-tree MT19937-64 that reproduces the stream of
 * `std::mt19937_64` output for output (same seeding, twist and
 * tempering; tests/test_common.cpp checks it against the std engine).
 * It exists for its block fill: the std engine hands out one output
 * per call, behind a branch on the state position, while a bulk
 * consumer (the sampled estimator draws 4,096 numbers per measurement
 * group) is served a whole block by one twist loop and one tempering
 * loop, which vectorize. `Rng::uniform_reals` turns such a block into
 * the very doubles `uniform_real` draws one at a time.
 */
#ifndef CAFQA_COMMON_RNG_HPP
#define CAFQA_COMMON_RNG_HPP

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace cafqa {

/** MT19937-64: `std::mt19937_64`'s stream, with a block fill. */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    /** Seeded as `std::mt19937_64(seed)` is. */
    explicit Mt19937_64(result_type seed = 5489u);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (pos_ == kStateSize) {
            twist();
        }
        return temper(state_[pos_++]);
    }

    /** The next `n` outputs, in order, into out[0, n). */
    void fill(result_type* out, std::size_t n);

    /** Skips `n` outputs, as `n` calls would. */
    void discard(std::uint64_t n);

  private:
    static constexpr std::size_t kStateSize = 312;

    static constexpr result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Regenerates the whole state block and rewinds to its start. */
    void twist();

    std::array<result_type, kStateSize> state_{};
    std::size_t pos_ = kStateSize;
};

/**
 * `std::generate_canonical<double, 53>` of one 64-bit output, as
 * libstdc++ computes it: x / 2^64 with x rounded once to double (the
 * two exact 32-bit halves summed), and a value that rounds up to 1
 * clamped to the largest double below 1.
 */
inline double
canonical_double(std::uint64_t x)
{
    const double rounded =
        static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(x));
    const double c = rounded * 0x1p-64;
    return c < 1.0 ? c : std::nextafter(1.0, 0.0);
}

/** Thin wrapper over the MT19937-64 engine with convenience draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [lo, hi). */
    double uniform_real(double lo = 0.0, double hi = 1.0);

    /** `n` draws into out[0, n), each equal to the next
     *  `uniform_real(lo, hi)` bit for bit. */
    void uniform_reals(double lo, double hi, double* out, std::size_t n);

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

    /** Skips `n` engine outputs: `n` `uniform_real` draws. */
    void discard(std::uint64_t n) { engine_.discard(n); }

  private:
    Mt19937_64 engine_;
};

} // namespace cafqa

#endif // CAFQA_COMMON_RNG_HPP
