#include "opt/search_baselines.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "opt/discrete_sampling.hpp"

namespace cafqa {

namespace {

/** Candidates generated (and batch-evaluated) per block: bounds the
 *  block allocation on huge budgets and spaces. */
constexpr std::size_t kChunk = 4096;

} // namespace

RandomSearchOptimizer::RandomSearchOptimizer(RandomSearchOptions options)
    : options_(options)
{
}

OptimizeOutcome
RandomSearchOptimizer::minimize(const DiscreteObjective& objective,
                                const DiscreteSpace& space,
                                const StoppingCriteria& criteria,
                                const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);
    CAFQA_REQUIRE(options_.samples > 0 || criteria.max_evaluations > 0 ||
                      !context.seed_configs.empty(),
                  "random search needs samples, an evaluation budget, or "
                  "seed configurations");
    Rng rng(options_.seed);
    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);

    // Sample generation runs in bounded chunks: the RNG/dedup sequence
    // (each config marked seen before the next draw, the warm-up's
    // idiom) is independent of the chunking and of whether a chunk is
    // evaluated serially or through `context.batch`, so the trajectory
    // is identical either way — and a huge evaluation budget never
    // materializes as one huge allocation.
    ConfigSet seen;
    try {
        for (const auto& config : context.seed_configs) {
            if (seen.insert(config).second) {
                recorder.record(config, objective(config));
            }
        }

        // Every draw is evaluated, so the draws left are the budget left
        // (or the sample count when the criteria set no cap).
        const std::size_t total = criteria.max_evaluations > 0
            ? recorder.remaining_budget()
            : options_.samples;
        std::vector<std::vector<int>> block;
        for (std::size_t drawn = 0; drawn < total; drawn += block.size()) {
            block.clear();
            const std::size_t chunk = std::min(total - drawn, kChunk);
            for (std::size_t s = 0; s < chunk; ++s) {
                std::vector<int> config = random_config(space, rng);
                for (int attempt = 0;
                     attempt < 16 && seen.count(config) != 0;
                     ++attempt) {
                    config = random_config(space, rng);
                }
                seen.insert(config);
                block.push_back(std::move(config));
            }
            record_block(block, objective, context, recorder);
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::BudgetExhausted);
}

OptimizeOutcome
ExhaustiveOptimizer::minimize(const DiscreteObjective& objective,
                              const DiscreteSpace& space,
                              const StoppingCriteria& criteria,
                              const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);
    // Only an evaluation cap terminates unconditionally: an unreached
    // target value or a never-stalling patience window would still
    // enumerate the whole space.
    CAFQA_REQUIRE(criteria.max_evaluations > 0 ||
                      space.log10_size() <= 7.35,
                  "space too large to enumerate exhaustively; set an "
                  "evaluation budget to bound the run");
    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);

    try {
        // Seeds first (gives target-value exits a strong start), then an
        // ascending odometer scan (coordinate 0 fastest) skipping the
        // already-evaluated seeds (same dedup set as the sampling
        // strategies; duplicate seeds are evaluated once). The scan runs
        // in bounded chunks recorded in scan order, so fanning a chunk
        // out through `context.batch` changes neither the trajectory nor
        // the first-minimum tie-break.
        ConfigSet seen;
        for (const auto& config : context.seed_configs) {
            if (seen.insert(config).second) {
                recorder.record(config, objective(config));
            }
        }

        std::vector<int> steps(space.num_parameters(), 0);
        std::vector<std::vector<int>> block;
        bool done = false;
        while (!done) {
            block.clear();
            const std::size_t chunk =
                std::min(recorder.remaining_budget(), kChunk);
            while (!done && block.size() < chunk) {
                if (seen.count(steps) == 0) {
                    block.push_back(steps);
                }
                done = true;
                for (std::size_t i = 0; i < steps.size(); ++i) {
                    if (++steps[i] < space.cardinalities[i]) {
                        done = false;
                        break;
                    }
                    steps[i] = 0;
                }
            }
            record_block(block, objective, context, recorder);
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::SpaceExhausted);
}

} // namespace cafqa
