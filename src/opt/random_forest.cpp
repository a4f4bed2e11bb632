#include "opt/random_forest.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cafqa {

void
RandomForest::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y, std::uint64_t seed,
                  ForestOptions options)
{
    // Rank-codes and validates the training set once for every tree.
    TreeBuilder builder(x, y);
    Rng rng(seed);
    trees_.assign(options.num_trees, DecisionTree{});
    num_features_ = builder.cols();

    // Default per-split feature count: sqrt(d), the usual forest choice.
    if (options.tree.feature_subset == 0) {
        options.tree.feature_subset = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::round(std::sqrt(static_cast<double>(num_features_)))));
    }

    const auto sample_size = static_cast<std::size_t>(
        std::max(1.0, options.bootstrap_fraction *
                          static_cast<double>(x.size())));

    // Bootstrap by row index; the builder gathers what each tree needs.
    std::vector<std::uint32_t> sample(sample_size);
    for (auto& tree : trees_) {
        for (auto& row : sample) {
            row = static_cast<std::uint32_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(x.size()) - 1));
        }
        builder.grow(tree, sample, rng, options.tree);
    }
}

double
RandomForest::predict(const std::vector<double>& x) const
{
    return predict_with_variance(x).mean;
}

ForestPrediction
RandomForest::predict_with_variance(const std::vector<double>& x) const
{
    CAFQA_REQUIRE(!trees_.empty(), "forest has not been fitted");
    CAFQA_REQUIRE(x.size() == num_features_,
                  "feature vector length does not match the fitted width");
    double sum = 0.0;
    double sq = 0.0;
    for (const auto& tree : trees_) {
        const double p = tree.leaf_value(x.data());
        sum += p;
        sq += p * p;
    }
    const double n = static_cast<double>(trees_.size());
    ForestPrediction out;
    out.mean = sum / n;
    out.variance = std::max(0.0, sq / n - out.mean * out.mean);
    return out;
}

std::size_t
RandomForest::node_count() const
{
    std::size_t total = 0;
    for (const auto& tree : trees_) {
        total += tree.node_count();
    }
    return total;
}

} // namespace cafqa
