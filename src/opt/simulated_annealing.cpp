#include "opt/simulated_annealing.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cafqa {

SimulatedAnnealingOptimizer::SimulatedAnnealingOptimizer(
    AnnealingOptions options)
    : options_(options)
{
}

OptimizeOutcome
SimulatedAnnealingOptimizer::minimize(const DiscreteObjective& objective,
                                      const DiscreteSpace& space,
                                      const StoppingCriteria& criteria,
                                      const SearchContext& context)
{
    validate_space(space);
    validate_seed_configs(context.seed_configs, space);
    const AnnealingOptions& options = options_;
    CAFQA_REQUIRE(options.iterations >= 1, "need at least one iteration");
    CAFQA_REQUIRE(options.initial_temperature > 0.0 &&
                      options.final_temperature > 0.0,
                  "temperatures must be positive");
    Rng rng(options.seed);
    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);
    // Annealing makes exactly one evaluation per step, so an evaluation
    // budget *is* an iteration count: resolve the criteria cap into the
    // schedule length (like random search's sample count) so equal-budget
    // comparisons stay equal and the cooling spans the whole run. The
    // schedule's step 0 is one evaluation (the starting state — the best
    // seed when seeds exist, a random draw otherwise), so only the seeds
    // *beyond the first* consume budget outside the schedule.
    const std::size_t seeds = context.seed_configs.size();
    const std::size_t extra_seed_evals = seeds > 0 ? seeds - 1 : 0;
    std::size_t iterations = options.iterations;
    if (criteria.max_evaluations > 0) {
        iterations = criteria.max_evaluations > extra_seed_evals
            ? criteria.max_evaluations - extra_seed_evals
            : 1;
    }

    try {
        std::vector<int> current;
        double current_value = 0.0;

        // Prior injection: evaluate the seeds and anneal from the best.
        for (const auto& config : context.seed_configs) {
            const double value = objective(config);
            recorder.record(config, value);
            if (current.empty() || value < current_value) {
                current = config;
                current_value = value;
            }
        }
        if (current.empty()) {
            current.resize(space.num_parameters());
            for (std::size_t i = 0; i < current.size(); ++i) {
                current[i] = static_cast<int>(
                    rng.uniform_int(0, space.cardinalities[i] - 1));
            }
            current_value = objective(current);
            recorder.record(current, current_value);
        }

        const double cooling = std::pow(
            options.final_temperature / options.initial_temperature,
            1.0 / static_cast<double>(iterations));
        double temperature = options.initial_temperature;

        for (std::size_t it = 1; it < iterations; ++it) {
            std::vector<int> proposal = current;
            for (std::size_t m = 0; m < options.mutations_per_step; ++m) {
                const auto pos = static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(proposal.size()) - 1));
                proposal[pos] = static_cast<int>(
                    rng.uniform_int(0, space.cardinalities[pos] - 1));
            }
            const double value = objective(proposal);
            recorder.record(proposal, value);

            const double delta = value - current_value;
            if (delta <= 0.0 ||
                rng.uniform_real() < std::exp(-delta / temperature)) {
                current = std::move(proposal);
                current_value = value;
            }
            temperature *= cooling;
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::BudgetExhausted);
}

} // namespace cafqa
