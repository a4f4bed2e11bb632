/**
 * @file
 * Simulated annealing over discrete configuration spaces — a baseline
 * search strategy used by the ablation bench to justify the paper's
 * choice of Bayesian optimization with a random-forest surrogate
 * (Section 5).
 *
 * `SimulatedAnnealingOptimizer` is the `DiscreteOptimizer`
 * implementation (registry key "anneal").
 */
#ifndef CAFQA_OPT_SIMULATED_ANNEALING_HPP
#define CAFQA_OPT_SIMULATED_ANNEALING_HPP


#include "opt/optimizer.hpp"

namespace cafqa {

/** Annealing schedule controls. */
struct AnnealingOptions
{
    /** Schedule length = total evaluations. A nonzero
     *  `StoppingCriteria::max_evaluations` replaces this (one proposal
     *  costs one evaluation, so the budget is the schedule). */
    std::size_t iterations = 500;
    double initial_temperature = 1.0;
    double final_temperature = 1e-3;
    std::uint64_t seed = 99;
    /** Coordinates mutated per proposal. */
    std::size_t mutations_per_step = 1;
};

/** Geometric-cooling Metropolis annealing (registry key "anneal").
 *  When `SearchContext::seed_configs` is set, the seeds are evaluated
 *  first and the best of them becomes the starting state. */
class SimulatedAnnealingOptimizer final : public DiscreteOptimizer
{
  public:
    explicit SimulatedAnnealingOptimizer(AnnealingOptions options = {});

    std::string_view name() const override { return "anneal"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    AnnealingOptions options_;
};

} // namespace cafqa

#endif // CAFQA_OPT_SIMULATED_ANNEALING_HPP
