/**
 * @file
 * Discrete Bayesian optimization over categorical parameter spaces —
 * CAFQA's search engine (paper Section 5, replacing HyperMapper).
 *
 * The loop alternates a random-forest surrogate fit with a greedy
 * acquisition over a candidate pool (uniform random samples plus local
 * mutations of the best configurations found so far), after an initial
 * random warm-up phase (Fig. 7: "the first 1000 iterations are a warm-up
 * period").
 *
 * `BayesOptimizer` is the `DiscreteOptimizer` implementation (registry
 * key "bayes"). Prior seeds, progress reporting and the batched warm-up
 * evaluator arrive through `SearchContext`: the warm-up block is
 * generated with the same RNG/dedup draws as the serial path and
 * recorded in generation order, so fanning it out through
 * `SearchContext::batch` leaves the trajectory bit-identical.
 */
#ifndef CAFQA_OPT_BAYES_OPT_HPP
#define CAFQA_OPT_BAYES_OPT_HPP

#include <vector>

#include "opt/optimizer.hpp"
#include "opt/random_forest.hpp"

namespace cafqa {

/** Bayesian optimization controls. */
struct BayesOptOptions
{
    /** Random-sampling warm-up evaluations. */
    std::size_t warmup = 200;
    /** Model-guided evaluations after warm-up. */
    std::size_t iterations = 300;
    std::uint64_t seed = 2023;
    /** Uniform random candidates per acquisition round. */
    std::size_t random_candidates = 256;
    /** Mutated candidates per acquisition round (from top configs). */
    std::size_t mutation_candidates = 128;
    /** Top configurations used as mutation seeds. */
    std::size_t elite_size = 8;
    /** Probability of taking a random candidate instead of the greedy
     *  argmin (exploration). */
    double epsilon_random = 0.05;
    /** Forest refit cadence (1 = every iteration). */
    std::size_t refit_every = 1;
    ForestOptions forest{};
    /** Stop early after this many non-improving iterations (0 = off). */
    std::size_t stall_limit = 0;
};

/** Random-forest Bayesian optimization (registry key "bayes"). */
class BayesOptimizer final : public DiscreteOptimizer
{
  public:
    explicit BayesOptimizer(BayesOptOptions options = {});

    std::string_view name() const override { return "bayes"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    BayesOptOptions options_;
};

} // namespace cafqa

#endif // CAFQA_OPT_BAYES_OPT_HPP
