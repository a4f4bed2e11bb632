/**
 * @file
 * Discrete Bayesian optimization over categorical parameter spaces —
 * CAFQA's search engine (paper Section 5, replacing HyperMapper).
 *
 * The loop alternates a random-forest surrogate fit with a greedy
 * acquisition over a candidate pool (256 uniform random samples plus
 * 128 one- or two-site mutations of the 8 best configurations found so
 * far; 5% of rounds take the first unevaluated candidate instead),
 * after an initial random warm-up phase (Fig. 7: "the first 1000
 * iterations are a warm-up period"). The forest is refitted every
 * round.
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
    ForestOptions forest{};
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
