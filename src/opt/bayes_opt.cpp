#include "opt/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

/** Acquisition pool per round: uniform random candidates, plus
 *  mutations of the best `kEliteSize` configurations evaluated so far. */
constexpr std::size_t kRandomCandidates = 256;
constexpr std::size_t kMutationCandidates = 128;
constexpr std::size_t kEliteSize = 8;
/** Probability of taking the first unevaluated candidate instead of
 *  the greedy argmin (exploration). */
constexpr double kEpsilonRandom = 0.05;

std::vector<double>
to_features(const std::vector<int>& config)
{
    return std::vector<double>(config.begin(), config.end());
}

} // namespace

BayesOptimizer::BayesOptimizer(BayesOptOptions options)
    : options_(std::move(options))
{
}

OptimizeOutcome
BayesOptimizer::minimize(const DiscreteObjective& objective,
                         const DiscreteSpace& space,
                         const StoppingCriteria& criteria,
                         const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);
    const BayesOptOptions& options = options_;
    Rng rng(options.seed);
    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);

    // `seen` owns each drawn or evaluated configuration once; `configs`
    // points into it (set elements never move) in evaluation order.
    ConfigSet seen;
    std::vector<const std::vector<int>*> configs;
    std::vector<std::vector<double>> features;
    std::vector<double> values;

    auto remember = [&](const std::vector<int>& config, double value) {
        configs.push_back(&*seen.insert(config).first);
        features.push_back(to_features(config));
        values.push_back(value);
    };

    auto evaluate = [&](const std::vector<int>& config) {
        const double value = objective(config);
        remember(config, value);
        recorder.record(config, value);
    };

    try {
        // ---- Prior injection: caller-provided configurations first
        //      (duplicates evaluated once). ----
        for (const auto& config : context.seed_configs) {
            if (seen.count(config) == 0) {
                evaluate(config);
            }
        }

        // ---- Warm-up: random sampling (deduplicated, bounded
        //      retries). Each draw is marked seen before the next, and
        //      a draw that is STILL a duplicate after the retries is
        //      dropped rather than dispatched: re-evaluating it would
        //      double-count the point against the evaluation budget.
        //      The block is generated whole, then evaluated and
        //      recorded in order (`record_block`), so fanning it out
        //      through `context.batch` leaves the trajectory unchanged.
        //      ----
        const std::size_t warmup =
            std::min(options.warmup, recorder.remaining_budget());
        std::vector<std::vector<int>> block;
        block.reserve(warmup);
        for (std::size_t w = 0; w < warmup; ++w) {
            std::vector<int> config = random_config(space, rng);
            for (int attempt = 0; attempt < 16 && seen.count(config) != 0;
                 ++attempt) {
                config = random_config(space, rng);
            }
            if (seen.insert(config).second) {
                block.push_back(std::move(config));
            }
        }
        const std::vector<double> block_values =
            record_block(block, objective, context, recorder);
        for (std::size_t w = 0; w < block.size(); ++w) {
            remember(block[w], block_values[w]);
        }

        // ---- Model-guided search. ----
        RandomForest forest;
        std::vector<double> row; // reused feature row for predictions
        for (std::size_t iter = 0; iter < options.iterations; ++iter) {
            forest.fit(features, values, options.seed + 17 * (iter + 1),
                       options.forest);

            // Candidate pool: uniform random + mutations of elites.
            std::vector<std::vector<int>> pool;
            pool.reserve(kRandomCandidates + kMutationCandidates);
            for (std::size_t c = 0; c < kRandomCandidates; ++c) {
                pool.push_back(random_config(space, rng));
            }
            if (!values.empty()) {
                // Rank evaluated configs by value, mutate the best few.
                std::vector<std::size_t> order(values.size());
                for (std::size_t i = 0; i < order.size(); ++i) {
                    order[i] = i;
                }
                std::sort(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) {
                              return values[a] < values[b];
                          });
                const std::size_t elites =
                    std::min(kEliteSize, order.size());
                for (std::size_t c = 0; c < kMutationCandidates; ++c) {
                    const std::size_t parent =
                        order[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(elites) - 1))];
                    std::vector<int> child = *configs[parent];
                    const int flips =
                        static_cast<int>(rng.uniform_int(1, 2));
                    for (int fidx = 0; fidx < flips; ++fidx) {
                        const auto pos =
                            static_cast<std::size_t>(rng.uniform_int(
                                0,
                                static_cast<std::int64_t>(child.size()) -
                                    1));
                        child[pos] = static_cast<int>(rng.uniform_int(
                            0, space.cardinalities[pos] - 1));
                    }
                    pool.push_back(std::move(child));
                }
            }

            // Greedy acquisition: pick the unevaluated candidate with
            // the lowest surrogate prediction (epsilon-random for
            // exploration).
            std::vector<int>* chosen = nullptr;
            if (rng.bernoulli(kEpsilonRandom)) {
                for (auto& candidate : pool) {
                    if (seen.count(candidate) == 0) {
                        chosen = &candidate;
                        break;
                    }
                }
            } else {
                double best_pred = 0.0;
                for (auto& candidate : pool) {
                    if (seen.count(candidate) != 0) {
                        continue;
                    }
                    row.assign(candidate.begin(), candidate.end());
                    const double pred = forest.predict(row);
                    if (chosen == nullptr || pred < best_pred) {
                        best_pred = pred;
                        chosen = &candidate;
                    }
                }
            }
            if (chosen == nullptr) {
                // Whole pool already evaluated — fresh random fallback.
                evaluate(random_config(space, rng));
            } else {
                evaluate(*chosen);
            }
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::BudgetExhausted);
}

} // namespace cafqa
