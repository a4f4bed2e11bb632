// Differential tests: the library's counting-sort random forest against
// the std::sort reference kernel it replaced (tests/reference_forest.hpp).
// The Bayesian search trajectory depends on every surrogate prediction,
// so agreement is exact: same node count, and `==` on every prediction
// and every variance.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "opt/decision_tree.hpp"
#include "opt/random_forest.hpp"
#include "reference_forest.hpp"

namespace cafqa {
namespace {

using Rows = std::vector<std::vector<double>>;

struct Dataset
{
    Rows x;
    std::vector<double> y;
    /** Rows to predict on: the training rows plus unseen ones. */
    Rows probes;
};

/** Integer features in [0, cardinality); every fourth row repeats an
 *  earlier one, so bootstrap samples hold duplicate rows. */
Dataset
integer_data(std::size_t n, std::size_t d, int cardinality,
             std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(d);
        if (i >= 4 && i % 4 == 0) {
            row = data.x[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
        } else {
            for (auto& v : row) {
                v = static_cast<double>(rng.uniform_int(0, cardinality - 1));
            }
        }
        double target = rng.normal();
        for (std::size_t f = 0; f < d; f += 3) {
            target += row[f] == 1.0 ? -1.0 : 0.25 * row[f];
        }
        data.x.push_back(std::move(row));
        data.y.push_back(target);
    }
    data.probes = data.x;
    for (int p = 0; p < 32; ++p) {
        std::vector<double> row(d);
        for (auto& v : row) {
            v = static_cast<double>(rng.uniform_int(0, cardinality - 1));
        }
        data.probes.push_back(std::move(row));
    }
    return data;
}

/** Continuous features on a coarse grid (many ties, +0.0 and -0.0
 *  both present) mixed with fine uniform values. */
Dataset
continuous_data(std::size_t n, std::size_t d, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(d);
        for (std::size_t f = 0; f < d; ++f) {
            if (f % 2 == 0) {
                const auto level = rng.uniform_int(-3, 3);
                row[f] = level == 0 ? (i % 2 == 0 ? 0.0 : -0.0)
                                    : 0.1 * static_cast<double>(level);
            } else {
                row[f] = rng.uniform_real(-2.0, 2.0);
            }
        }
        data.y.push_back(row[0] * row[0] + (d > 1 ? row[1] : 0.0) +
                         rng.normal(0.0, 0.1));
        data.x.push_back(std::move(row));
    }
    data.probes = data.x;
    for (int p = 0; p < 32; ++p) {
        std::vector<double> row(d);
        for (auto& v : row) {
            v = rng.uniform_real(-2.5, 2.5);
        }
        data.probes.push_back(std::move(row));
    }
    return data;
}

ForestOptions
with_trees(std::size_t num_trees)
{
    ForestOptions options;
    options.num_trees = num_trees;
    return options;
}

void
expect_forests_match(const Dataset& data, std::uint64_t seed,
                     const ForestOptions& options, const std::string& label)
{
    RandomForest forest;
    forest.fit(data.x, data.y, seed, options);
    reference::RandomForest oracle;
    oracle.fit(data.x, data.y, seed, options);

    ASSERT_EQ(forest.node_count(), oracle.node_count()) << label;
    for (std::size_t p = 0; p < data.probes.size(); ++p) {
        const ForestPrediction got =
            forest.predict_with_variance(data.probes[p]);
        const ForestPrediction want =
            oracle.predict_with_variance(data.probes[p]);
        // Exact equality on purpose: the search depends on every bit.
        ASSERT_TRUE(got.mean == want.mean)
            << label << " probe " << p << ": " << got.mean
            << " != " << want.mean;
        ASSERT_TRUE(got.variance == want.variance)
            << label << " probe " << p << ": " << got.variance
            << " != " << want.variance;
        ASSERT_TRUE(forest.predict(data.probes[p]) == want.mean) << label;
    }
}

TEST(ForestDifferential, IntegerFeaturesAcrossShapes)
{
    const std::vector<std::size_t> widths = {1, 2, 3, 7, 16, 40, 64, 130};
    const std::vector<std::size_t> sizes = {4, 5, 17, 60, 200};
    std::uint64_t seed = 1;
    for (const int cardinality : {2, 4}) {
        for (const std::size_t d : widths) {
            for (const std::size_t n : sizes) {
                const Dataset data = integer_data(n, d, cardinality, seed);
                expect_forests_match(
                    data, seed * 31, with_trees(8),
                    "card=" + std::to_string(cardinality) +
                        " d=" + std::to_string(d) +
                        " n=" + std::to_string(n));
                ++seed;
            }
        }
    }
}

TEST(ForestDifferential, PaperShapesWithDefaultOptions)
{
    // The Bayesian surrogate's shapes: LiH (d=16), H6 (d=40) and
    // er-32 MaxCut (d=128), quarter-turn features, default forest.
    expect_forests_match(integer_data(500, 16, 4, 101), 17, {}, "d=16");
    expect_forests_match(integer_data(600, 40, 4, 102), 34, {}, "d=40");
    expect_forests_match(integer_data(250, 128, 4, 103), 51, {}, "d=128");
}

TEST(ForestDifferential, MirroredColumnsTieExactly)
{
    // Column 2j+1 mirrors column 2j (v -> 3 - v), so every split of one
    // has a twin on the other with the same two child sets: the scores
    // agree up to rounding, and which feature wins depends on the exact
    // order each sum runs in — ties inside a value included. Probes
    // that break the mirror see which twin won.
    for (std::uint64_t seed = 700; seed < 716; ++seed) {
        Rng rng(seed);
        Dataset data;
        for (std::size_t i = 0; i < 160; ++i) {
            std::vector<double> row(8);
            for (std::size_t f = 0; f < row.size(); f += 2) {
                row[f] = static_cast<double>(rng.uniform_int(0, 3));
                row[f + 1] = 3.0 - row[f];
            }
            data.y.push_back(rng.uniform_real(-1.0, 1.0) * 1e3 + row[0]);
            data.x.push_back(std::move(row));
        }
        data.probes = data.x;
        for (int p = 0; p < 64; ++p) {
            std::vector<double> row(8);
            for (auto& v : row) {
                v = static_cast<double>(rng.uniform_int(0, 3));
            }
            data.probes.push_back(std::move(row));
        }
        TreeOptions tree;
        tree.feature_subset = 8;
        tree.min_samples_leaf = 1;
        expect_forests_match(data, seed,
                             {.num_trees = 6,
                              .tree = tree,
                              .bootstrap_fraction = 1.0},
                             "mirrored seed=" + std::to_string(seed));
    }
}

TEST(ForestDifferential, ContinuousFeaturesWithTies)
{
    std::uint64_t seed = 200;
    for (const std::size_t d : {1, 2, 5, 12}) {
        for (const std::size_t n : {4, 9, 64, 300}) {
            const Dataset data = continuous_data(n, d, seed);
            expect_forests_match(data, seed, with_trees(10),
                                 "continuous d=" + std::to_string(d) +
                                     " n=" + std::to_string(n));
            ++seed;
        }
    }
}

TEST(ForestDifferential, BootstrapFractionBelowOne)
{
    for (const double fraction : {0.001, 0.3, 0.5, 0.99}) {
        const std::string label = "fraction=" + std::to_string(fraction);
        expect_forests_match(integer_data(120, 16, 4, 300), 3,
                             {.num_trees = 12,
                              .tree = {},
                              .bootstrap_fraction = fraction},
                             label + " integer");
        expect_forests_match(continuous_data(120, 4, 301), 4,
                             {.num_trees = 12,
                              .tree = {},
                              .bootstrap_fraction = fraction},
                             label + " continuous");
    }
}

TEST(ForestDifferential, TreeGrowthEdgeValues)
{
    const Dataset ints = integer_data(90, 10, 4, 400);
    const Dataset reals = continuous_data(90, 3, 401);
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{64}}) {
        for (const std::size_t leaf : {std::size_t{0}, std::size_t{1},
                                       std::size_t{2}, std::size_t{45},
                                       std::size_t{46}, std::size_t{500}}) {
            for (const std::size_t subset :
                 {std::size_t{0}, std::size_t{1}, std::size_t{10},
                  std::size_t{11}}) {
                const ForestOptions options{
                    .num_trees = 5,
                    .tree = {.max_depth = depth,
                             .min_samples_leaf = leaf,
                             .feature_subset = subset},
                    .bootstrap_fraction = 1.0};
                const std::string label =
                    "depth=" + std::to_string(depth) +
                    " leaf=" + std::to_string(leaf) +
                    " subset=" + std::to_string(subset);
                expect_forests_match(ints, 7, options, label);
                expect_forests_match(reals, 8, options, label + " real");
            }
        }
    }
}

TEST(ForestDifferential, SingleTreeMatchesReference)
{
    for (const std::size_t subset : {std::size_t{0}, std::size_t{3}}) {
        const Dataset data = integer_data(150, 24, 4, 500 + subset);
        const TreeOptions options{.max_depth = 16,
                                  .min_samples_leaf = 1,
                                  .feature_subset = subset};
        Rng rng(9);
        Rng oracle_rng(9);
        DecisionTree tree;
        tree.fit(data.x, data.y, rng, options);
        reference::DecisionTree oracle;
        oracle.fit(data.x, data.y, oracle_rng, options);
        ASSERT_EQ(tree.node_count(), oracle.node_count());
        for (const auto& probe : data.probes) {
            ASSERT_TRUE(tree.predict(probe) == oracle.predict(probe));
        }
        // Both consumed the same RNG draws.
        EXPECT_EQ(rng.uniform_int(0, 1 << 30),
                  oracle_rng.uniform_int(0, 1 << 30));
    }
}

TEST(ForestDifferential, RefitReusesNothingStale)
{
    // A forest refit on different data (new width, new values) must
    // equal a fresh forest fitted on that data.
    RandomForest forest;
    const Dataset first = integer_data(80, 40, 4, 600);
    forest.fit(first.x, first.y, 1);
    const Dataset data = continuous_data(70, 6, 601);
    forest.fit(data.x, data.y, 2);
    reference::RandomForest oracle;
    oracle.fit(data.x, data.y, 2);
    for (const auto& probe : data.probes) {
        ASSERT_TRUE(forest.predict(probe) ==
                    oracle.predict_with_variance(probe).mean);
    }
}

} // namespace
} // namespace cafqa
