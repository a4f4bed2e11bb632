/**
 * @file
 * Random-forest regressor: bootstrap-aggregated regression trees with
 * per-split feature subsampling. CAFQA's surrogate model choice for the
 * discrete Clifford space (paper Section 5: "flexible enough to model the
 * discrete space and scales well").
 */
#ifndef CAFQA_OPT_RANDOM_FOREST_HPP
#define CAFQA_OPT_RANDOM_FOREST_HPP

#include <cstdint>
#include <vector>

#include "opt/decision_tree.hpp"

namespace cafqa {

/** Forest controls. */
struct ForestOptions
{
    std::size_t num_trees = 30;
    TreeOptions tree;
    /** Bootstrap sample fraction of the training set. */
    double bootstrap_fraction = 1.0;
};

/** Mean/variance prediction across trees. */
struct ForestPrediction
{
    double mean = 0.0;
    double variance = 0.0;
};

/** Bagged regression forest. */
class RandomForest
{
  public:
    /** Fit on rows x with targets y; deterministic given the seed.
     *  Throws std::invalid_argument on ragged rows or non-finite
     *  features. */
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, std::uint64_t seed,
             ForestOptions options = {});

    /** Mean prediction for one row of the fitted width. */
    double predict(const std::vector<double>& x) const;

    /** Mean and across-tree variance (a cheap uncertainty proxy). */
    ForestPrediction predict_with_variance(
        const std::vector<double>& x) const;

    std::size_t num_trees() const { return trees_.size(); }

    /** Total nodes over all trees (for tests). */
    std::size_t node_count() const;

  private:
    std::vector<DecisionTree> trees_;
    std::size_t num_features_ = 0;
};

} // namespace cafqa

#endif // CAFQA_OPT_RANDOM_FOREST_HPP
