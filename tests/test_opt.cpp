// Tests for the optimization substrate: the Optimizer interfaces and
// registry, a contract suite run over every registered optimizer,
// Nelder-Mead, SPSA, regression trees/forests, the discrete Bayesian
// optimizer, and the unguided baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "opt/bayes_opt.hpp"
#include "opt/discrete_sampling.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/optimizer_registry.hpp"
#include "opt/search_baselines.hpp"
#include "opt/simulated_annealing.hpp"
#include "opt/spsa.hpp"

namespace cafqa {
namespace {

TEST(NelderMead, Quadratic)
{
    auto f = [](const std::vector<double>& x) {
        return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
    };
    const OptimizeOutcome r = NelderMeadOptimizer().minimize(f, {0.0, 0.0});
    EXPECT_NEAR(r.best_x[0], 1.0, 1e-5);
    EXPECT_NEAR(r.best_x[1], -2.0, 1e-5);
    EXPECT_LT(r.best_value, 1e-9);
    EXPECT_EQ(r.stop_reason, StopReason::Converged);
}

TEST(NelderMead, Rosenbrock)
{
    auto f = [](const std::vector<double>& x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    const OptimizeOutcome r = NelderMeadOptimizer(
        {.max_evaluations = 5000, .f_tolerance = 1e-14, .initial_step = 0.5})
        .minimize(f, {-1.2, 1.0});
    EXPECT_NEAR(r.best_x[0], 1.0, 1e-3);
    EXPECT_NEAR(r.best_x[1], 1.0, 1e-3);
}

TEST(Spsa, NoiselessQuadratic)
{
    auto f = [](const std::vector<double>& x) {
        double s = 0.0;
        for (const double v : x) {
            s += (v - 0.5) * (v - 0.5);
        }
        return s;
    };
    const OptimizeOutcome r = SpsaOptimizer({.iterations = 800,
                                             .a = 0.5,
                                             .c = 0.1,
                                             .alpha = 0.602,
                                             .gamma = 0.101,
                                             .stability = 10.0,
                                             .seed = 5})
                                  .minimize(f, {3.0, -2.0, 1.0});
    EXPECT_LT(r.best_value, 1e-2);
    // Start-point value plus one recorded value per iteration; the +/-
    // probes are counted but not recorded.
    EXPECT_EQ(r.history.size(), 801u);
    EXPECT_EQ(r.evaluations, 1u + 3u * 800u);
}

TEST(Spsa, NoisyObjectiveStillDescends)
{
    Rng noise(3);
    auto f = [&](const std::vector<double>& x) {
        double s = 0.0;
        for (const double v : x) {
            s += v * v;
        }
        return s + noise.normal(0.0, 0.01);
    };
    const auto r = SpsaOptimizer({.iterations = 500}).minimize(f, {2.0, 2.0});
    EXPECT_LT(r.best_value, 0.5);
}

TEST(DecisionTree, FitsPiecewiseConstantExactly)
{
    // y = 1 if x0 <= 0.5 else 3.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 32; ++i) {
        const double v = i / 31.0;
        x.push_back({v});
        y.push_back(v <= 0.5 ? 1.0 : 3.0);
    }
    DecisionTree tree;
    Rng rng(1);
    tree.fit(x, y, rng, {.max_depth = 4, .min_samples_leaf = 1,
                         .feature_subset = 0});
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 1e-12);
    EXPECT_NEAR(tree.predict({0.9}), 3.0, 1e-12);
}

TEST(DecisionTree, DiscreteFeatures)
{
    // y = x0 XOR x1 on {0,1}^2 — needs depth 2.
    std::vector<std::vector<double>> x = {
        {0, 0}, {0, 1}, {1, 0}, {1, 1},
        {0, 0}, {0, 1}, {1, 0}, {1, 1}};
    std::vector<double> y = {0, 1, 1, 0, 0, 1, 1, 0};
    DecisionTree tree;
    Rng rng(2);
    tree.fit(x, y, rng, {.max_depth = 4, .min_samples_leaf = 1,
                         .feature_subset = 0});
    EXPECT_NEAR(tree.predict({0, 1}), 1.0, 1e-12);
    EXPECT_NEAR(tree.predict({1, 1}), 0.0, 1e-12);
}

TEST(RandomForest, PredictsSmoothFunction)
{
    Rng data_rng(7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 400; ++i) {
        const double a = data_rng.uniform_real(0, 3);
        const double b = data_rng.uniform_real(0, 3);
        x.push_back({a, b});
        y.push_back(a * a + b);
    }
    RandomForest forest;
    forest.fit(x, y, 42, {.num_trees = 40, .tree = {}, .bootstrap_fraction = 1.0});
    double mse = 0.0;
    for (int i = 0; i < 50; ++i) {
        const double a = 0.05 + (i % 10) * 0.3;
        const double b = 0.05 + (i / 10) * 0.6;
        const double pred = forest.predict({a, b});
        mse += (pred - (a * a + b)) * (pred - (a * a + b));
    }
    EXPECT_LT(mse / 50.0, 0.5);
}

TEST(RandomForest, VarianceIsNonnegativeAndInformative)
{
    std::vector<std::vector<double>> x = {{0}, {1}, {2}, {3}};
    std::vector<double> y = {0, 1, 2, 3};
    RandomForest forest;
    forest.fit(x, y, 9, {.num_trees = 16, .tree = {.max_depth = 3,
                                                   .min_samples_leaf = 1,
                                                   .feature_subset = 0},
                         .bootstrap_fraction = 1.0});
    const ForestPrediction p = forest.predict_with_variance({1.5});
    EXPECT_GE(p.variance, 0.0);
    EXPECT_GT(p.mean, 0.0);
    EXPECT_LT(p.mean, 3.0);
}

TEST(BayesOpt, FindsDiscreteOptimum)
{
    // Separable objective over {0..3}^6, optimum at all-2s.
    auto f = [](const std::vector<int>& config) {
        double s = 0.0;
        for (const int v : config) {
            s += (v - 2) * (v - 2);
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(6, 4);
    const auto r = BayesOptimizer({.warmup = 40, .iterations = 120, .seed = 3})
                       .minimize(f, space);
    EXPECT_EQ(r.best_value, 0.0);
    for (const int v : r.best_config) {
        EXPECT_EQ(v, 2);
    }
}

TEST(BayesOpt, TraceIsMonotoneAndConsistent)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] * 7 + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    const auto r = BayesOptimizer({.warmup = 8, .iterations = 20, .seed = 1})
                       .minimize(f, space);
    ASSERT_EQ(r.best_trace.size(), r.history.size());
    for (std::size_t i = 1; i < r.best_trace.size(); ++i) {
        EXPECT_LE(r.best_trace[i], r.best_trace[i - 1] + 1e-15);
        EXPECT_LE(r.best_trace[i], r.history[i] + 1e-15);
    }
    EXPECT_GE(r.evaluations_to_best, 1u);
    EXPECT_NEAR(r.history[r.evaluations_to_best - 1], r.best_value, 1e-15);
}

TEST(BayesOpt, BeatsShortRandomSearchOnStructuredProblem)
{
    // A correlated objective where model guidance should help: count
    // matches to a hidden pattern, with interactions between neighbors.
    const std::vector<int> hidden = {1, 3, 0, 2, 1, 3, 0, 2, 1, 3};
    auto f = [&](const std::vector<int>& config) {
        double s = 0.0;
        for (std::size_t i = 0; i < config.size(); ++i) {
            s += std::abs(config[i] - hidden[i]);
            if (i > 0 && config[i] == config[i - 1]) {
                s += 0.5;
            }
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(10, 4);

    const auto guided =
        BayesOptimizer({.warmup = 60, .iterations = 240, .seed = 11})
            .minimize(f, space);
    const auto random_only =
        BayesOptimizer({.warmup = 300, .iterations = 0, .seed = 11})
            .minimize(f, space);
    EXPECT_LT(guided.best_value, random_only.best_value + 1e-12);
}

TEST(BayesOpt, StallLimitStopsEarly)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0]);
    };
    DiscreteSpace space;
    space.cardinalities = {2};
    const auto r = BayesOptimizer({.warmup = 2, .iterations = 500, .seed = 1,
                                   .stall_limit = 5})
                       .minimize(f, space);
    EXPECT_LT(r.history.size(), 60u);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.stop_reason, StopReason::Stalled);
}

TEST(BayesOpt, SeedConfigsAreEvaluatedFirst)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    const SearchContext context{.seed_configs = {{0, 0}}};
    const auto r = BayesOptimizer({.warmup = 5, .iterations = 5, .seed = 2})
                       .minimize(f, space, {}, context);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.evaluations_to_best, 1u);
    EXPECT_NEAR(r.history.front(), 0.0, 1e-15);
}

TEST(BayesOpt, SeedConfigValidation)
{
    auto f = [](const std::vector<int>&) { return 0.0; };
    DiscreteSpace space;
    space.cardinalities = {4, 4};
    const SearchContext context{.seed_configs = {{0, 9}}};
    EXPECT_THROW(BayesOptimizer({.warmup = 2, .iterations = 2, .seed = 2})
                     .minimize(f, space, {}, context),
                 std::invalid_argument);
}

TEST(BayesOpt, WarmupNeverDispatchesDuplicateConfigurations)
{
    // On a space small enough that the bounded dedup retries can run
    // out, the warm-up used to dispatch the stale duplicate anyway —
    // evaluating it twice and double-counting it against the budget.
    // Now the exhausted draw is dropped: every configuration is
    // evaluated at most once, in both the serial and batched paths.
    DiscreteSpace space;
    space.cardinalities = {2, 2}; // 4 configurations, warmup 32
    BayesOptOptions options;
    options.warmup = 32;
    options.iterations = 0;
    options.seed = 21;

    auto run = [&](bool batched) {
        std::map<std::vector<int>, int> counts;
        auto objective = [&](const std::vector<int>& config) {
            ++counts[config];
            return static_cast<double>(config[0] * 2 + config[1]);
        };
        SearchContext context;
        if (batched) {
            context.batch =
                [&](const std::vector<std::vector<int>>& block) {
                    std::vector<double> values;
                    values.reserve(block.size());
                    for (const auto& config : block) {
                        values.push_back(objective(config));
                    }
                    return values;
                };
        }
        BayesOptimizer optimizer(options);
        const OptimizeOutcome outcome =
            optimizer.minimize(objective, space, {}, context);
        for (const auto& [config, count] : counts) {
            EXPECT_EQ(count, 1) << "config evaluated " << count
                                << " times in "
                                << (batched ? "batched" : "serial")
                                << " warm-up";
        }
        EXPECT_LE(outcome.evaluations, 4u);
        return outcome;
    };

    const OptimizeOutcome serial = run(false);
    const OptimizeOutcome batched = run(true);
    // The batched path must still mirror the serial trajectory exactly.
    EXPECT_EQ(serial.history, batched.history);
    EXPECT_EQ(serial.best_config, batched.best_config);
}

TEST(SimulatedAnnealing, FindsDiscreteOptimum)
{
    auto f = [](const std::vector<int>& config) {
        double s = 0.0;
        for (const int v : config) {
            s += (v - 1) * (v - 1);
        }
        return s;
    };
    DiscreteSpace space;
    space.cardinalities.assign(6, 4);
    const OptimizeOutcome r = SimulatedAnnealingOptimizer(
        {.iterations = 2000, .initial_temperature = 2.0,
         .final_temperature = 1e-3, .seed = 4, .mutations_per_step = 1})
        .minimize(f, space);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.history.size(), 2000u);
    // Trace is a running minimum.
    for (std::size_t i = 1; i < r.best_trace.size(); ++i) {
        EXPECT_LE(r.best_trace[i], r.best_trace[i - 1] + 1e-15);
    }
}

TEST(BayesOpt, SpaceSizeAccounting)
{
    DiscreteSpace space;
    space.cardinalities.assign(48, 4);
    EXPECT_NEAR(space.log10_size(), 48 * std::log10(4.0), 1e-12);
}

TEST(ExhaustiveSearch, EnumeratesWholeSpaceAscending)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] + 10 * config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {3, 2};
    ExhaustiveOptimizer optimizer;
    const OptimizeOutcome r = optimizer.minimize(f, space);
    EXPECT_EQ(r.evaluations, 6u);
    EXPECT_EQ(r.stop_reason, StopReason::SpaceExhausted);
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.best_config, (std::vector<int>{0, 0}));
    // Ascending odometer order: first coordinate fastest.
    EXPECT_EQ(r.history,
              (std::vector<double>{0, 1, 2, 10, 11, 12}));
}

TEST(ExhaustiveSearch, RefusesUnboundedHugeSpace)
{
    DiscreteSpace space;
    space.cardinalities.assign(48, 4);
    ExhaustiveOptimizer optimizer;
    auto f = [](const std::vector<int>&) { return 0.0; };
    EXPECT_THROW(optimizer.minimize(f, space), std::invalid_argument);
    // 4^13 is the smallest cardinality-4 space past the limit.
    EXPECT_THROW(optimizer.minimize(f, {std::vector<int>(13, 4)}),
                 std::invalid_argument);
    // A budget makes the same space legal.
    StoppingCriteria criteria;
    criteria.max_evaluations = 10;
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.evaluations, 10u);
}

TEST(ConfigSet, CollidingHashesStayDistinct)
{
    // Every dedup site keys on the configuration itself. With a hasher
    // that sends every configuration to one bucket, the set must still
    // tell all of them apart; a set of hashes would have kept one and
    // silently skipped the other fifteen.
    struct CollidingHasher
    {
        std::size_t operator()(const std::vector<int>&) const { return 42; }
    };
    BasicConfigSet<CollidingHasher> seen;
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            EXPECT_TRUE(seen.insert({a, b}).second) << a << "," << b;
        }
    }
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_FALSE(seen.insert({2, 3}).second);
    EXPECT_EQ(seen.count({3, 3}), 1u);
    EXPECT_EQ(seen.count({3, 4}), 0u);
    EXPECT_EQ(seen.count({3}), 0u);

    // The shared default keys the same way.
    ConfigSet configs;
    EXPECT_TRUE(configs.insert({1, 2}).second);
    EXPECT_TRUE(configs.insert({2, 1}).second);
    EXPECT_FALSE(configs.insert({1, 2}).second);
}

TEST(RandomSearch, BatchPathMatchesSerial)
{
    auto f = [](const std::vector<int>& config) {
        return static_cast<double>(config[0] * 3 + config[1]);
    };
    DiscreteSpace space;
    space.cardinalities = {4, 4, 4};
    RandomSearchOptions options{.samples = 30, .seed = 17};

    RandomSearchOptimizer serial(options);
    const OptimizeOutcome a = serial.minimize(f, space);

    SearchContext context;
    context.batch = [&](const std::vector<std::vector<int>>& block) {
        std::vector<double> values;
        values.reserve(block.size());
        for (const auto& config : block) {
            values.push_back(f(config));
        }
        return values;
    };
    RandomSearchOptimizer batched(options);
    const OptimizeOutcome b = batched.minimize(f, space, {}, context);

    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_config, b.best_config);
}

// ---------------------------------------------------------------------
// Contract suite: every registered optimizer, resolved through the
// registry, must recover a planted optimum, honor the stopping
// criteria, keep a consistent monotone trace, evaluate seeds first,
// and be deterministic under a fixed seed.
// ---------------------------------------------------------------------

/** Planted optimum at {1, 3, 0} on {0..3}^3 (64 configurations). */
const std::vector<int> kPlanted = {1, 3, 0};

double
planted_objective(const std::vector<int>& config)
{
    double s = 0.0;
    for (std::size_t i = 0; i < config.size(); ++i) {
        s += std::abs(config[i] - kPlanted[i]);
    }
    return s;
}

DiscreteSpace
planted_space()
{
    DiscreteSpace space;
    space.cardinalities.assign(3, 4);
    return space;
}

/** Budgets sized for the tiny contract problems. */
OptimizerConfig
contract_config(const std::string& kind)
{
    OptimizerConfig config = optimizer_config(kind);
    config.bayes.warmup = 40;
    config.bayes.iterations = 100;
    config.anneal.iterations = 300;
    config.anneal.initial_temperature = 2.0;
    config.random.samples = 300;
    config.nelder_mead.max_evaluations = 600;
    config.spsa = {.iterations = 500,
                   .a = 0.5,
                   .c = 0.1,
                   .alpha = 0.602,
                   .gamma = 0.101,
                   .stability = 10.0,
                   .seed = 5};
    return config;
}

void
expect_trace_consistent(const OptimizeOutcome& r)
{
    ASSERT_FALSE(r.history.empty());
    ASSERT_EQ(r.best_trace.size(), r.history.size());
    for (std::size_t i = 0; i < r.history.size(); ++i) {
        EXPECT_LE(r.best_trace[i],
                  (i ? r.best_trace[i - 1] : r.history[0]) + 1e-15);
        EXPECT_LE(r.best_trace[i], r.history[i] + 1e-15);
    }
    EXPECT_DOUBLE_EQ(r.best_trace.back(), r.best_value);
    EXPECT_GE(r.evaluations, r.history.size());
    ASSERT_GE(r.evaluations_to_best, 1u);
    ASSERT_LE(r.evaluations_to_best, r.history.size());
    EXPECT_DOUBLE_EQ(r.history[r.evaluations_to_best - 1], r.best_value);
}

class DiscreteOptimizerContract
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DiscreteOptimizerContract, RecoversPlantedOptimumWithConsistentTrace)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space());
    EXPECT_EQ(r.best_value, 0.0);
    EXPECT_EQ(r.best_config, kPlanted);
    expect_trace_consistent(r);
}

TEST_P(DiscreteOptimizerContract, RespectsEvaluationBudget)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 17;
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space(), criteria);
    EXPECT_EQ(r.evaluations, 17u);
    EXPECT_EQ(r.history.size(), 17u);
    EXPECT_EQ(r.stop_reason, StopReason::BudgetExhausted);
}

TEST_P(DiscreteOptimizerContract, TargetValueStopsEarly)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.target_value = 2.0;
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space(), criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TargetReached);
    EXPECT_LE(r.best_value, 2.0);
    EXPECT_LT(r.evaluations, 300u);
}

TEST_P(DiscreteOptimizerContract, SeedConfigsAreEvaluatedFirst)
{
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    SearchContext context;
    context.seed_configs = {kPlanted};
    const OptimizeOutcome r = optimizer->minimize(
        planted_objective, planted_space(), {}, context);
    EXPECT_DOUBLE_EQ(r.history.front(), 0.0);
    EXPECT_EQ(r.evaluations_to_best, 1u);
    EXPECT_EQ(r.best_config, kPlanted);
}

TEST_P(DiscreteOptimizerContract, DeterministicUnderFixedSeed)
{
    const OptimizerConfig config = contract_config(GetParam());
    const OptimizeOutcome a =
        make_discrete_optimizer(config)->minimize(planted_objective,
                                                  planted_space());
    const OptimizeOutcome b =
        make_discrete_optimizer(config)->minimize(planted_objective,
                                                  planted_space());
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_config, b.best_config);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_P(DiscreteOptimizerContract, CancelTokenStopsMidRunWithBestSoFar)
{
    // The cancellation contract every strategy must honor: a token
    // raised mid-run (here by the objective itself, at its 9th call)
    // stops the search at the next recorded evaluation with
    // StopReason::Cancelled and the best point found so far intact.
    const auto optimizer =
        make_discrete_optimizer(contract_config(GetParam()));
    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::size_t calls = 0;
    const auto objective = [&](const std::vector<int>& config) {
        if (++calls == 9) {
            cancel->store(true, std::memory_order_relaxed);
        }
        return planted_objective(config);
    };
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.cancel = cancel;
    const OptimizeOutcome r =
        optimizer->minimize(objective, planted_space(), criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Cancelled);
    // The cancel is observed when the 9th call's value is recorded
    // (block-evaluating strategies may call the objective further
    // ahead, but never record past the token).
    ASSERT_EQ(r.history.size(), 9u);
    expect_trace_consistent(r);
    ASSERT_EQ(r.best_config.size(), 3u);
    EXPECT_DOUBLE_EQ(planted_objective(r.best_config), r.best_value);
    EXPECT_DOUBLE_EQ(
        *std::min_element(r.history.begin(), r.history.end()),
        r.best_value);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, DiscreteOptimizerContract,
    ::testing::ValuesIn(registered_discrete_optimizers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

double
bowl_objective(const std::vector<double>& x)
{
    double s = 0.0;
    for (const double v : x) {
        s += (v - 0.5) * (v - 0.5);
    }
    return s;
}

class ContinuousOptimizerContract
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ContinuousOptimizerContract, ConvergesOnQuadraticBowl)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0});
    EXPECT_LT(r.best_value, 1e-2);
    ASSERT_EQ(r.best_x.size(), 3u);
    for (const double v : r.best_x) {
        EXPECT_NEAR(v, 0.5, 0.1);
    }
    expect_trace_consistent(r);
}

TEST_P(ContinuousOptimizerContract, RespectsEvaluationBudget)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.max_evaluations = 25;
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_LE(r.evaluations, 25u);
    EXPECT_GE(r.evaluations, 10u);
}

TEST_P(ContinuousOptimizerContract, TargetValueStopsEarly)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    StoppingCriteria criteria;
    criteria.target_value = 0.5;
    const OptimizeOutcome r =
        optimizer->minimize(bowl_objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TargetReached);
    EXPECT_LE(r.best_value, 0.5);
}

TEST_P(ContinuousOptimizerContract, DeterministicUnderFixedSeed)
{
    const OptimizerConfig config = contract_config(GetParam());
    const OptimizeOutcome a = make_continuous_optimizer(config)->minimize(
        bowl_objective, {3.0, -2.0, 1.0});
    const OptimizeOutcome b = make_continuous_optimizer(config)->minimize(
        bowl_objective, {3.0, -2.0, 1.0});
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.best_x, b.best_x);
}

TEST_P(ContinuousOptimizerContract, CancelTokenStopsMidRunWithBestSoFar)
{
    const auto optimizer =
        make_continuous_optimizer(contract_config(GetParam()));
    const auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::size_t calls = 0;
    const auto objective = [&](const std::vector<double>& x) {
        if (++calls == 9) {
            cancel->store(true, std::memory_order_relaxed);
        }
        return bowl_objective(x);
    };
    StoppingCriteria criteria;
    criteria.max_evaluations = 200;
    criteria.cancel = cancel;
    const OptimizeOutcome r =
        optimizer->minimize(objective, {3.0, -2.0, 1.0}, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Cancelled);
    ASSERT_FALSE(r.history.empty());
    // Unrecorded probe calls (SPSA's gradient probes) do not check the
    // token, so the stop lands at the next *recorded* evaluation — a
    // couple of calls past the 9th, never a full run.
    EXPECT_LE(r.history.size(), 12u);
    expect_trace_consistent(r);
    ASSERT_EQ(r.best_x.size(), 3u);
    EXPECT_DOUBLE_EQ(
        *std::min_element(r.history.begin(), r.history.end()),
        r.best_value);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ContinuousOptimizerContract,
    ::testing::ValuesIn(registered_continuous_optimizers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(StoppingCriteria, PatienceStopsStalledSearch)
{
    // Constant objective: no improvement is ever possible, so the run
    // must end after the patience window.
    auto f = [](const std::vector<int>&) { return 1.0; };
    DiscreteSpace space;
    space.cardinalities.assign(4, 4);
    StoppingCriteria criteria;
    criteria.max_evaluations = 300;
    criteria.patience = 7;
    RandomSearchOptimizer optimizer({.samples = 300, .seed = 9});
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::Stalled);
    EXPECT_EQ(r.history.size(), 8u);
}

TEST(StoppingCriteria, WallClockBudgetStopsSlowSearch)
{
    // Each evaluation sleeps ~2ms; a 20ms budget must end the run long
    // before the 10k-sample budget.
    auto f = [](const std::vector<int>&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 1.0;
    };
    DiscreteSpace space;
    space.cardinalities.assign(8, 4);
    StoppingCriteria criteria;
    criteria.max_seconds = 0.02;
    RandomSearchOptimizer optimizer({.samples = 10000, .seed = 9});
    const OptimizeOutcome r = optimizer.minimize(f, space, criteria);
    EXPECT_EQ(r.stop_reason, StopReason::TimeExpired);
    EXPECT_LT(r.evaluations, 10000u);
}

TEST(OptimizerRegistry, StopReasonNames)
{
    EXPECT_EQ(to_string(StopReason::BudgetExhausted), "budget");
    EXPECT_EQ(to_string(StopReason::TargetReached), "target");
    EXPECT_EQ(to_string(StopReason::SpaceExhausted), "space-exhausted");
}

TEST(OptimizerRegistry, BuiltInsConstructibleByKey)
{
    const auto kinds = registered_optimizers();
    for (const char* kind : {"bayes", "anneal", "random", "exhaustive",
                             "nelder-mead", "spsa"}) {
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end())
            << kind;
        const auto optimizer = make_optimizer(optimizer_config(kind));
        EXPECT_EQ(optimizer->name(), kind);
    }
    // Containment, not equality: other tests may register extra kinds
    // in the process-global registry (robust under --gtest_shuffle).
    const auto discrete = registered_discrete_optimizers();
    for (const char* kind : {"anneal", "bayes", "exhaustive", "random"}) {
        EXPECT_NE(std::find(discrete.begin(), discrete.end(), kind),
                  discrete.end())
            << kind;
    }
    const auto continuous = registered_continuous_optimizers();
    for (const char* kind : {"nelder-mead", "spsa"}) {
        EXPECT_NE(std::find(continuous.begin(), continuous.end(), kind),
                  continuous.end())
            << kind;
    }
}

TEST(OptimizerRegistry, RejectsUnknownAndWrongSpaceKinds)
{
    EXPECT_THROW(make_optimizer(optimizer_config("no-such-optimizer")),
                 std::invalid_argument);
    EXPECT_THROW(make_discrete_optimizer(optimizer_config("spsa")),
                 std::invalid_argument);
    EXPECT_THROW(make_continuous_optimizer(optimizer_config("bayes")),
                 std::invalid_argument);
}

TEST(OptimizerRegistry, RuntimeExtension)
{
    // A caller-registered strategy is immediately constructible. (The
    // registry is process-global; the enumeration assertions elsewhere
    // check containment of the built-ins, not exact lists, so order
    // does not matter.)
    register_optimizer("random-wide", [](const OptimizerConfig& config) {
        RandomSearchOptions options = config.random;
        options.samples *= 2;
        return std::make_unique<RandomSearchOptimizer>(options);
    });
    const auto kinds = registered_optimizers();
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "random-wide"),
              kinds.end());
    const auto optimizer =
        make_discrete_optimizer(optimizer_config("random-wide"));
    const OptimizeOutcome r =
        optimizer->minimize(planted_objective, planted_space());
    EXPECT_EQ(r.best_value, 0.0);
}

} // namespace
} // namespace cafqa
