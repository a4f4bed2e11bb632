#include "common/rng.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace cafqa {

namespace {

constexpr std::size_t kShift = 156;          // MT19937-64's m
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;

/** One state word of the twist: the top bit of `hi`, the low 31 bits
 *  of `lo`, shifted and conditionally xored into `far`. */
constexpr std::uint64_t
twisted(std::uint64_t hi, std::uint64_t lo, std::uint64_t far)
{
    const std::uint64_t y = (hi & kUpperMask) | (lo & ~kUpperMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
}

} // namespace

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
        const result_type prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::twist()
{
    std::size_t k = 0;
    for (; k < kStateSize - kShift; ++k) {
        state_[k] = twisted(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kStateSize - 1; ++k) {
        state_[k] = twisted(state_[k], state_[k + 1],
                            state_[k + kShift - kStateSize]);
    }
    state_[k] = twisted(state_[k], state_[0], state_[kShift - 1]);
    pos_ = 0;
}

void
Mt19937_64::fill(result_type* out, std::size_t n)
{
    while (n > 0) {
        if (pos_ == kStateSize) {
            twist();
        }
        const std::size_t take = std::min(n, kStateSize - pos_);
        const result_type* from = state_.data() + pos_;
        for (std::size_t i = 0; i < take; ++i) {
            out[i] = temper(from[i]);
        }
        pos_ += take;
        out += take;
        n -= take;
    }
}

void
Mt19937_64::discard(std::uint64_t n)
{
    while (n > kStateSize - pos_) {
        n -= kStateSize - pos_;
        twist();
    }
    pos_ += static_cast<std::size_t>(n);
}

std::int64_t
Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    CAFQA_REQUIRE(lo <= hi, "empty integer range");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::uniform_real(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

void
Rng::uniform_reals(double lo, double hi, double* out, std::size_t n)
{
    // std::uniform_real_distribution draws canonical * (hi - lo) + lo.
    const double span = hi - lo;
    std::array<std::uint64_t, 512> block;
    while (n > 0) {
        const std::size_t take = std::min(n, block.size());
        engine_.fill(block.data(), take);
        for (std::size_t i = 0; i < take; ++i) {
            out[i] = canonical_double(block[i]) * span + lo;
        }
        out += take;
        n -= take;
    }
}

double
Rng::normal(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

int
Rng::rademacher()
{
    return bernoulli(0.5) ? 1 : -1;
}

std::vector<std::size_t>
Rng::sample_without_replacement(std::size_t n, std::size_t k)
{
    std::vector<std::size_t> idx;
    sample_without_replacement(n, k, idx);
    return idx;
}

void
Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                std::vector<std::size_t>& out)
{
    CAFQA_REQUIRE(k <= n, "cannot sample more elements than population");
    out.resize(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    // Partial Fisher-Yates: only the first k positions need shuffling.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(
            uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(n - 1)));
        std::swap(out[i], out[j]);
    }
    out.resize(k);
}

} // namespace cafqa
