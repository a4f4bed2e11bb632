#include "opt/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

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

    // `seen` owns each evaluated configuration once; `configs` points
    // into it (set elements never move) in evaluation order.
    ConfigSet seen;
    std::vector<const std::vector<int>*> configs;
    std::vector<std::vector<double>> features;
    std::vector<double> values;

    auto record = [&](const std::vector<int>& config, double value) {
        configs.push_back(&*seen.insert(config).first);
        features.push_back(to_features(config));
        values.push_back(value);
        recorder.record(config, value);
    };

    auto evaluate = [&](const std::vector<int>& config) {
        record(config, objective(config));
    };

    StopReason reason = StopReason::BudgetExhausted;
    try {
        // ---- Prior injection: caller-provided configurations first
        //      (duplicates evaluated once). ----
        for (const auto& config : context.seed_configs) {
            if (seen.count(config) == 0) {
                evaluate(config);
            }
        }

        // ---- Warm-up: random sampling (deduplicated, bounded
        //      retries). A draw that is STILL a duplicate after the
        //      retries is dropped rather than dispatched: re-evaluating
        //      it would double-count the point against the evaluation
        //      budget (and, in the batched path, ship redundant work to
        //      the pool). The drop happens after the same RNG draws as
        //      before, so trajectories on spaces where the retries
        //      always succeed — every realistic CAFQA space — are
        //      unchanged. ----
        const std::size_t warmup =
            std::min(options.warmup, recorder.remaining_budget());
        if (context.batch && warmup > 0) {
            // Batched path: generate the whole block first (same
            // RNG/dedup draws as the serial loop — each config is marked
            // seen before the next is drawn), evaluate it in one call,
            // record in order.
            std::vector<std::vector<int>> block;
            block.reserve(warmup);
            for (std::size_t w = 0; w < warmup; ++w) {
                std::vector<int> config = random_config(space, rng);
                for (int attempt = 0;
                     attempt < 16 && seen.count(config) != 0;
                     ++attempt) {
                    config = random_config(space, rng);
                }
                if (seen.count(config) != 0) {
                    continue; // exhausted retries: already evaluated
                }
                seen.insert(config);
                block.push_back(std::move(config));
            }
            const std::vector<double> block_values = context.batch(block);
            CAFQA_REQUIRE(block_values.size() == block.size(),
                          "batch evaluator returned wrong value count");
            for (std::size_t w = 0; w < block.size(); ++w) {
                record(block[w], block_values[w]);
            }
        } else {
            for (std::size_t w = 0; w < warmup; ++w) {
                std::vector<int> config = random_config(space, rng);
                for (int attempt = 0;
                     attempt < 16 && seen.count(config) != 0;
                     ++attempt) {
                    config = random_config(space, rng);
                }
                if (seen.count(config) != 0) {
                    continue; // exhausted retries: already evaluated
                }
                evaluate(config);
            }
        }

        // ---- Model-guided search. ----
        RandomForest forest;
        std::vector<double> row; // reused feature row for predictions
        std::size_t stall = 0;
        double best_at_last_improvement = recorder.best_value();

        for (std::size_t iter = 0; iter < options.iterations; ++iter) {
            if (options.stall_limit > 0 && stall >= options.stall_limit) {
                reason = StopReason::Stalled;
                break;
            }
            if (iter % std::max<std::size_t>(1, options.refit_every) == 0) {
                forest.fit(features, values, options.seed + 17 * (iter + 1),
                           options.forest);
            }

            // Candidate pool: uniform random + mutations of elites.
            std::vector<std::vector<int>> pool;
            pool.reserve(options.random_candidates +
                         options.mutation_candidates);
            for (std::size_t c = 0; c < options.random_candidates; ++c) {
                pool.push_back(random_config(space, rng));
            }
            if (!values.empty() && options.mutation_candidates > 0) {
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
                    std::min(options.elite_size, order.size());
                for (std::size_t c = 0; c < options.mutation_candidates;
                     ++c) {
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
            if (rng.bernoulli(options.epsilon_random)) {
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

            if (recorder.best_value() < best_at_last_improvement - 1e-15) {
                best_at_last_improvement = recorder.best_value();
                stall = 0;
            } else {
                ++stall;
            }
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(reason);
}

} // namespace cafqa
