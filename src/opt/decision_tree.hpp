/**
 * @file
 * Regression tree over discrete/continuous feature vectors — the building
 * block of the random-forest surrogate model used by CAFQA's Bayesian
 * optimization (paper Section 5).
 *
 * Trees are grown by `TreeBuilder`, which stores the training set once,
 * column-major, as ranks into each column's sorted distinct values, and
 * orders a node's samples by a stable counting sort over those ranks.
 * That order is exactly the (value, sample index) order a comparison
 * sort gives, so split scores, thresholds, node order and RNG draws are
 * those of the plain `std::sort` CART kernel (kept as the differential
 * oracle in tests/reference_forest.hpp).
 */
#ifndef CAFQA_OPT_DECISION_TREE_HPP
#define CAFQA_OPT_DECISION_TREE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace cafqa {

/** Tree growth controls. */
struct TreeOptions
{
    std::size_t max_depth = 16;
    std::size_t min_samples_leaf = 2;
    /** Features considered per split; 0 means all. */
    std::size_t feature_subset = 0;
};

/** CART-style regression tree (variance-reduction splits). */
class DecisionTree
{
  public:
    /**
     * Fit to rows `x[i]` with targets `y[i]`. `rng` drives the random
     * feature subsets (pass a fixed-seed Rng for determinism). Throws
     * std::invalid_argument on ragged rows or non-finite features.
     */
    void fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y, Rng& rng,
             const TreeOptions& options = {});

    /** Predict the target for one row of the fitted width. */
    double predict(const std::vector<double>& x) const;

    /** Number of nodes (for tests). */
    std::size_t node_count() const { return nodes_.size(); }

  private:
    friend class TreeBuilder;
    friend class RandomForest;

    struct Node
    {
        int feature = -1; ///< -1 for a leaf
        double threshold = 0.0;
        double value = 0.0;
        int left = -1;
        int right = -1;
    };

    /** Walk to a leaf without checking the width: `x` must hold
     *  `num_features_` values (RandomForest checks once per
     *  prediction, not once per tree). */
    double leaf_value(const double* x) const;

    std::vector<Node> nodes_;
    std::size_t num_features_ = 0;
};

/**
 * Grows trees over one training set, reusing its buffers across trees
 * (a forest refit grows every tree through one builder).
 *
 * Each feature column is stored once as `uint16_t` ranks into that
 * column's sorted distinct values; integer and continuous features
 * share this path. A tree gathers the ranks and targets of its
 * bootstrap rows, then grows each node over a `[begin, end)` range of
 * one sample-index buffer that stays ascending, so a stable counting
 * sort by rank reproduces the (value, index) order. Children are
 * partitioned in place, stably, through one scratch buffer, comparing
 * actual values against the threshold.
 */
class TreeBuilder
{
  public:
    /** Rank-code rows `x` with targets `y` (kept by reference: `y`
     *  must outlive the builder). Throws std::invalid_argument on an
     *  empty or mismatched set, ragged rows, non-finite features, or a
     *  column with more than 65536 distinct values. */
    TreeBuilder(const std::vector<std::vector<double>>& x,
                const std::vector<double>& y);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Fit `tree` to the bootstrap sample `sample` (training-row
     *  indices in draw order; repeats allowed). */
    void grow(DecisionTree& tree, const std::vector<std::uint32_t>& sample,
              Rng& rng, const TreeOptions& options);

  private:
    /** Grow the node over index_[begin, end), whose targets sum to
     *  `sum` in index order. */
    int build(DecisionTree& tree, std::size_t begin, std::size_t end,
              double sum, std::size_t depth, Rng& rng,
              const TreeOptions& options);
    /** Order index_[begin, end) by (rank in column `f`, index): the
     *  targets into sorted_y_[0, end - begin), the ranks into
     *  sorted_ranks_. May return false instead when the column is
     *  constant over the node, which leaves no split to score. */
    bool sort_node(std::size_t f, std::size_t begin, std::size_t end);

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    /** Training ranks, column-major: codes_[f * rows_ + row]. */
    std::vector<std::uint16_t> codes_;
    /** Sorted distinct values of each column, indexed by rank. */
    std::vector<std::vector<double>> values_;
    const std::vector<double>& y_;

    // Per-tree buffers, sized by grow().
    /** Bootstrap ranks, column-major: sample_codes_[f * m + s]. */
    std::vector<std::uint16_t> sample_codes_;
    std::vector<double> sample_y_;
    std::size_t subset_ = 0;
    /** Sample indices; each node owns one ascending range. */
    std::vector<std::uint32_t> index_;
    /** A node's targets and ranks in sorted order (one feature). */
    std::vector<double> sorted_y_;
    std::vector<std::uint16_t> sorted_ranks_;
    /** Right-child indices during a partition. */
    std::vector<std::uint32_t> spill_;
    std::vector<std::uint32_t> counts_;
    std::vector<std::size_t> features_;
};

} // namespace cafqa

#endif // CAFQA_OPT_DECISION_TREE_HPP
