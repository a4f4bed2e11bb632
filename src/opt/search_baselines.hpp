/**
 * @file
 * Unguided discrete search baselines for the paper's Section 5
 * ablation: plain uniform random search and exhaustive enumeration.
 * Random search is what Fig. 7's warm-up period degenerates to without
 * the surrogate; exhaustive enumeration certifies the true optimum on
 * small spaces (the paper uses it to validate BO on H2-sized ansatze).
 *
 * Registry keys: "random" and "exhaustive".
 */
#ifndef CAFQA_OPT_SEARCH_BASELINES_HPP
#define CAFQA_OPT_SEARCH_BASELINES_HPP

#include <cstdint>

#include "opt/optimizer.hpp"

namespace cafqa {

/** Random-search controls. */
struct RandomSearchOptions
{
    /** Uniform samples drawn when the criteria set no evaluation cap. */
    std::size_t samples = 500;
    std::uint64_t seed = 2023;
};

/**
 * Uniform random sampling with the same bounded-retry deduplication as
 * the Bayesian warm-up (registry key "random"). Honors
 * `SearchContext::batch` by generating the whole sample block up front
 * and fanning the evaluations out — the trajectory is identical to the
 * serial path.
 */
class RandomSearchOptimizer final : public DiscreteOptimizer
{
  public:
    explicit RandomSearchOptimizer(RandomSearchOptions options = {});

    std::string_view name() const override { return "random"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    RandomSearchOptions options_;
};

/**
 * Exhaustive ascending enumeration of the whole space (registry key
 * "exhaustive"). Guaranteed to find the global optimum when allowed to
 * finish (`stop_reason == SpaceExhausted`); combine with an evaluation
 * budget on larger spaces. Refuses spaces beyond ~2*10^7
 * configurations (4^12 passes, 4^13 does not) unless an evaluation
 * budget bounds the run. Honors `SearchContext::batch` by evaluating
 * the scan in bounded blocks — the trajectory is identical to the
 * serial path.
 */
class ExhaustiveOptimizer final : public DiscreteOptimizer
{
  public:
    std::string_view name() const override { return "exhaustive"; }

    OptimizeOutcome minimize(const DiscreteObjective& objective,
                             const DiscreteSpace& space,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;
};

} // namespace cafqa

#endif // CAFQA_OPT_SEARCH_BASELINES_HPP
