/**
 * @file
 * Reference random forest: the straightforward `std::sort` kernel the
 * library's counting-sort forest (`src/opt/random_forest.*`) replaced,
 * kept as the differential oracle. Every tree copies its bootstrap rows
 * and, at every node, sorts (value, index) pairs for every sampled
 * feature. The library forest must match it bit for bit: same node
 * count, same predictions, same variances (tests/test_forest.cpp;
 * bench/forest_fit times the two against each other).
 *
 * Header-only so the test and the bench share one copy.
 */
#ifndef CAFQA_TESTS_REFERENCE_FOREST_HPP
#define CAFQA_TESTS_REFERENCE_FOREST_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "opt/random_forest.hpp"

namespace cafqa::reference {

/** CART regression tree with a `std::sort` per node and feature. */
class DecisionTree
{
  public:
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, Rng& rng,
             const TreeOptions& options = {})
    {
        CAFQA_REQUIRE(!x.empty() && x.size() == y.size(),
                      "training data shape mismatch");
        nodes_.clear();
        std::vector<std::size_t> indices(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            indices[i] = i;
        }
        build(x, y, indices, 0, rng, options);
    }

    double predict(const std::vector<double>& x) const
    {
        CAFQA_REQUIRE(!nodes_.empty(), "tree has not been fitted");
        std::size_t node = 0;
        while (nodes_[node].feature >= 0) {
            const auto f = static_cast<std::size_t>(nodes_[node].feature);
            CAFQA_REQUIRE(f < x.size(), "feature vector too short");
            node = static_cast<std::size_t>(
                (x[f] <= nodes_[node].threshold) ? nodes_[node].left
                                                 : nodes_[node].right);
        }
        return nodes_[node].value;
    }

    std::size_t node_count() const { return nodes_.size(); }

  private:
    struct Node
    {
        int feature = -1;
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };

    int build(const std::vector<std::vector<double>>& x,
              const std::vector<double>& y,
              std::vector<std::size_t>& indices, std::size_t depth,
              Rng& rng, const TreeOptions& options)
    {
        const int node_id = static_cast<int>(nodes_.size());
        nodes_.push_back(Node{});
        double mean = 0.0;
        for (const std::size_t i : indices) {
            mean += y[i];
        }
        nodes_[static_cast<std::size_t>(node_id)].value =
            mean / static_cast<double>(indices.size());

        if (depth >= options.max_depth ||
            indices.size() < 2 * options.min_samples_leaf) {
            return node_id;
        }

        const std::size_t num_features = x[0].size();
        std::size_t subset = options.feature_subset;
        if (subset == 0 || subset > num_features) {
            subset = num_features;
        }
        const std::vector<std::size_t> features =
            rng.sample_without_replacement(num_features, subset);

        double best_score = std::numeric_limits<double>::infinity();
        int best_feature = -1;
        double best_threshold = 0.0;

        std::vector<std::pair<double, std::size_t>> sorted;
        for (const std::size_t f : features) {
            sorted.clear();
            for (const std::size_t i : indices) {
                sorted.emplace_back(x[i][f], i);
            }
            std::sort(sorted.begin(), sorted.end());

            double left_sum = 0.0;
            double left_sq = 0.0;
            double right_sum = 0.0;
            double right_sq = 0.0;
            for (const auto& entry : sorted) {
                right_sum += y[entry.second];
                right_sq += y[entry.second] * y[entry.second];
            }
            for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
                const double yi = y[sorted[k].second];
                left_sum += yi;
                left_sq += yi * yi;
                right_sum -= yi;
                right_sq -= yi * yi;
                if (sorted[k].first == sorted[k + 1].first) {
                    continue;
                }
                const std::size_t nl = k + 1;
                const std::size_t nr = sorted.size() - nl;
                if (nl < options.min_samples_leaf ||
                    nr < options.min_samples_leaf) {
                    continue;
                }
                const double sse_left =
                    left_sq - left_sum * left_sum / static_cast<double>(nl);
                const double sse_right =
                    right_sq -
                    right_sum * right_sum / static_cast<double>(nr);
                const double score = sse_left + sse_right;
                if (score < best_score) {
                    best_score = score;
                    best_feature = static_cast<int>(f);
                    best_threshold =
                        0.5 * (sorted[k].first + sorted[k + 1].first);
                }
            }
        }

        if (best_feature < 0) {
            return node_id;
        }

        std::vector<std::size_t> left_idx;
        std::vector<std::size_t> right_idx;
        for (const std::size_t i : indices) {
            if (x[i][static_cast<std::size_t>(best_feature)] <=
                best_threshold) {
                left_idx.push_back(i);
            } else {
                right_idx.push_back(i);
            }
        }
        if (left_idx.empty() || right_idx.empty()) {
            return node_id;
        }

        nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
        nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
        const int left = build(x, y, left_idx, depth + 1, rng, options);
        const int right = build(x, y, right_idx, depth + 1, rng, options);
        nodes_[static_cast<std::size_t>(node_id)].left = left;
        nodes_[static_cast<std::size_t>(node_id)].right = right;
        return node_id;
    }

    std::vector<Node> nodes_;
};

/** Bagged forest that copies each bootstrap sample row by row. */
class RandomForest
{
  public:
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, std::uint64_t seed,
             ForestOptions options = {})
    {
        CAFQA_REQUIRE(!x.empty() && x.size() == y.size(),
                      "training data shape mismatch");
        Rng rng(seed);
        trees_.assign(options.num_trees, DecisionTree{});
        if (options.tree.feature_subset == 0) {
            options.tree.feature_subset = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::round(
                       std::sqrt(static_cast<double>(x[0].size())))));
        }
        const auto sample_size = static_cast<std::size_t>(
            std::max(1.0, options.bootstrap_fraction *
                              static_cast<double>(x.size())));

        std::vector<std::vector<double>> bx;
        std::vector<double> by;
        for (auto& tree : trees_) {
            bx.clear();
            by.clear();
            for (std::size_t s = 0; s < sample_size; ++s) {
                const auto i = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(x.size()) - 1));
                bx.push_back(x[i]);
                by.push_back(y[i]);
            }
            tree.fit(bx, by, rng, options.tree);
        }
    }

    ForestPrediction predict_with_variance(const std::vector<double>& x) const
    {
        CAFQA_REQUIRE(!trees_.empty(), "forest has not been fitted");
        double sum = 0.0;
        double sq = 0.0;
        for (const auto& tree : trees_) {
            const double p = tree.predict(x);
            sum += p;
            sq += p * p;
        }
        const double n = static_cast<double>(trees_.size());
        ForestPrediction out;
        out.mean = sum / n;
        out.variance = std::max(0.0, sq / n - out.mean * out.mean);
        return out;
    }

    std::size_t node_count() const
    {
        std::size_t total = 0;
        for (const auto& tree : trees_) {
            total += tree.node_count();
        }
        return total;
    }

  private:
    std::vector<DecisionTree> trees_;
};

} // namespace cafqa::reference

#endif // CAFQA_TESTS_REFERENCE_FOREST_HPP
