#include "common/rng.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace cafqa {

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

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    return sample_without_replacement(n, n);
}

} // namespace cafqa
