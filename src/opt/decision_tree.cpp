#include "opt/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/error.hpp"

namespace cafqa {

namespace {

constexpr std::size_t kMaxRanks =
    std::size_t{std::numeric_limits<std::uint16_t>::max()} + 1;

} // namespace

TreeBuilder::TreeBuilder(const std::vector<std::vector<double>>& x,
                         const std::vector<double>& y)
    : y_(y)
{
    CAFQA_REQUIRE(!x.empty() && x.size() == y.size(),
                  "training data shape mismatch");
    CAFQA_REQUIRE(x.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "training set has too many rows");
    rows_ = x.size();
    cols_ = x[0].size();
    for (std::size_t r = 0; r < rows_; ++r) {
        CAFQA_REQUIRE(x[r].size() == cols_,
                      "ragged training rows: row " + std::to_string(r) +
                          " has " + std::to_string(x[r].size()) +
                          " features, row 0 has " + std::to_string(cols_));
    }

    codes_.resize(rows_ * cols_);
    values_.assign(cols_, {});
    std::vector<double> column(rows_);
    for (std::size_t f = 0; f < cols_; ++f) {
        for (std::size_t r = 0; r < rows_; ++r) {
            column[r] = x[r][f];
            CAFQA_REQUIRE(std::isfinite(column[r]),
                          "non-finite training feature at row " +
                              std::to_string(r) + ", column " +
                              std::to_string(f));
        }
        // Equal values share a rank (+0.0 and -0.0 included: every
        // threshold and comparison treats them alike).
        std::vector<double>& values = values_[f];
        values = column;
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()),
                     values.end());
        CAFQA_REQUIRE(values.size() <= kMaxRanks,
                      "training column " + std::to_string(f) +
                          " has more than 65536 distinct values");
        std::uint16_t* codes = codes_.data() + f * rows_;
        for (std::size_t r = 0; r < rows_; ++r) {
            codes[r] = static_cast<std::uint16_t>(
                std::lower_bound(values.begin(), values.end(), column[r]) -
                values.begin());
        }
    }
}

void
TreeBuilder::grow(DecisionTree& tree, const std::vector<std::uint32_t>& sample,
                  Rng& rng, const TreeOptions& options)
{
    const std::size_t m = sample.size();
    CAFQA_REQUIRE(m > 0, "empty bootstrap sample");
    sample_y_.resize(m);
    for (std::size_t s = 0; s < m; ++s) {
        CAFQA_REQUIRE(sample[s] < rows_, "bootstrap row out of range");
        sample_y_[s] = y_[sample[s]];
    }
    sample_codes_.resize(m * cols_);
    for (std::size_t f = 0; f < cols_; ++f) {
        const std::uint16_t* src = codes_.data() + f * rows_;
        std::uint16_t* dst = sample_codes_.data() + f * m;
        for (std::size_t s = 0; s < m; ++s) {
            dst[s] = src[sample[s]];
        }
    }
    index_.resize(m);
    std::iota(index_.begin(), index_.end(), std::uint32_t{0});
    sorted_y_.resize(m);
    sorted_ranks_.resize(m);
    spill_.resize(m);
    subset_ = options.feature_subset;
    if (subset_ == 0 || subset_ > cols_) {
        subset_ = cols_;
    }

    tree.nodes_.clear();
    tree.num_features_ = cols_;
    double sum = 0.0;
    for (const double yi : sample_y_) {
        sum += yi;
    }
    build(tree, 0, m, sum, 0, rng, options);
}

bool
TreeBuilder::sort_node(std::size_t f, std::size_t begin, std::size_t end)
{
    const std::size_t count = end - begin;
    const std::uint16_t* codes = sample_codes_.data() + f * sample_y_.size();
    const std::size_t distinct = values_[f].size();
    // counts_[r + 1] counts rank r; the prefix sum turns counts_[r] into
    // rank r's first slot. Indices are placed in ascending order, so
    // ties keep index order.
    counts_.assign(distinct + 1, 0);
    for (std::size_t k = begin; k < end; ++k) {
        ++counts_[codes[index_[k]] + 1u];
    }
    if (counts_[codes[index_[begin]] + 1u] == count) {
        return false; // one value: no threshold to try
    }
    for (std::size_t r = 1; r < distinct; ++r) {
        counts_[r] += counts_[r - 1];
    }
    for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t s = index_[k];
        const std::uint32_t slot = counts_[codes[s]]++;
        sorted_y_[slot] = sample_y_[s];
        sorted_ranks_[slot] = codes[s];
    }
    return true;
}

int
TreeBuilder::build(DecisionTree& tree, std::size_t begin, std::size_t end,
                   double sum, std::size_t depth, Rng& rng,
                   const TreeOptions& options)
{
    const int node_id = static_cast<int>(tree.nodes_.size());
    const auto id = static_cast<std::size_t>(node_id);
    const std::size_t count = end - begin;
    tree.nodes_.push_back(DecisionTree::Node{});
    tree.nodes_[id].value = sum / static_cast<double>(count);

    if (depth >= options.max_depth ||
        count < 2 * options.min_samples_leaf) {
        return node_id;
    }

    rng.sample_without_replacement(cols_, subset_, features_);

    // Find the split minimizing the summed squared error of children.
    double best_score = std::numeric_limits<double>::infinity();
    int best_feature = -1;
    double best_threshold = 0.0;
    for (const std::size_t f : features_) {
        if (!sort_node(f, begin, end)) {
            continue;
        }

        // Running sums in sorted order give O(1) variance updates.
        double left_sum = 0.0;
        double left_sq = 0.0;
        double right_sum = 0.0;
        double right_sq = 0.0;
        for (std::size_t k = 0; k < count; ++k) {
            const double yi = sorted_y_[k];
            right_sum += yi;
            right_sq += yi * yi;
        }
        for (std::size_t k = 0; k + 1 < count; ++k) {
            const double yi = sorted_y_[k];
            left_sum += yi;
            left_sq += yi * yi;
            right_sum -= yi;
            right_sq -= yi * yi;
            const std::uint16_t rank = sorted_ranks_[k];
            const std::uint16_t next = sorted_ranks_[k + 1];
            if (rank == next) {
                continue; // no valid threshold between equal values
            }
            const std::size_t nl = k + 1;
            const std::size_t nr = count - nl;
            if (nl < options.min_samples_leaf ||
                nr < options.min_samples_leaf) {
                continue;
            }
            const double sse_left =
                left_sq - left_sum * left_sum / static_cast<double>(nl);
            const double sse_right =
                right_sq - right_sum * right_sum / static_cast<double>(nr);
            const double score = sse_left + sse_right;
            if (score < best_score) {
                best_score = score;
                best_feature = static_cast<int>(f);
                best_threshold = 0.5 * (values_[f][rank] + values_[f][next]);
            }
        }
    }

    if (best_feature < 0) {
        return node_id; // no useful split found
    }

    // Stable in-place partition: left indices are compacted in place,
    // right ones spill through spill_ and are copied back after them.
    // Each side's target sum is accumulated in ascending index order,
    // exactly as the child would sum its own range.
    const auto bf = static_cast<std::size_t>(best_feature);
    const std::uint16_t* codes = sample_codes_.data() + bf * sample_y_.size();
    const double* values = values_[bf].data();
    std::size_t mid = begin;
    std::size_t spill = 0;
    double left_sum = 0.0;
    double right_sum = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t s = index_[k];
        if (values[codes[s]] <= best_threshold) {
            index_[mid++] = s;
            left_sum += sample_y_[s];
        } else {
            spill_[spill++] = s;
            right_sum += sample_y_[s];
        }
    }
    if (mid == begin || mid == end) {
        return node_id; // index_ is untouched or rewritten unchanged
    }
    std::copy(spill_.begin(),
              spill_.begin() + static_cast<std::ptrdiff_t>(spill),
              index_.begin() + static_cast<std::ptrdiff_t>(mid));

    tree.nodes_[id].feature = best_feature;
    tree.nodes_[id].threshold = best_threshold;
    const int left =
        build(tree, begin, mid, left_sum, depth + 1, rng, options);
    const int right =
        build(tree, mid, end, right_sum, depth + 1, rng, options);
    tree.nodes_[id].left = left;
    tree.nodes_[id].right = right;
    return node_id;
}

void
DecisionTree::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y, Rng& rng,
                  const TreeOptions& options)
{
    TreeBuilder builder(x, y);
    std::vector<std::uint32_t> sample(builder.rows());
    std::iota(sample.begin(), sample.end(), std::uint32_t{0});
    builder.grow(*this, sample, rng, options);
}

double
DecisionTree::leaf_value(const double* x) const
{
    std::size_t node = 0;
    while (nodes_[node].feature >= 0) {
        const Node& split = nodes_[node];
        node = static_cast<std::size_t>(
            x[split.feature] <= split.threshold ? split.left : split.right);
    }
    return nodes_[node].value;
}

double
DecisionTree::predict(const std::vector<double>& x) const
{
    CAFQA_REQUIRE(!nodes_.empty(), "tree has not been fitted");
    CAFQA_REQUIRE(x.size() == num_features_,
                  "feature vector length does not match the fitted width");
    return leaf_value(x.data());
}

} // namespace cafqa
