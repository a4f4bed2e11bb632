/**
 * @file
 * Nelder-Mead downhill simplex minimizer for small continuous problems.
 * Used by the STO-nG basis fitter and available as a noise-free baseline
 * tuner for post-CAFQA VQA tuning (registry key "nelder-mead").
 */
#ifndef CAFQA_OPT_NELDER_MEAD_HPP
#define CAFQA_OPT_NELDER_MEAD_HPP

#include <vector>

#include "opt/optimizer.hpp"

namespace cafqa {

/** Options for Nelder-Mead. */
struct NelderMeadOptions
{
    /** Own evaluation budget (a `StoppingCriteria` cap overrides). */
    std::size_t max_evaluations = 2000;
    /** Stop when the simplex f-value spread falls below this. */
    double f_tolerance = 1e-12;
    /** Initial simplex edge length per coordinate. */
    double initial_step = 0.5;
};

/** Downhill simplex minimization (registry key "nelder-mead"). */
class NelderMeadOptimizer final : public ContinuousOptimizer
{
  public:
    explicit NelderMeadOptimizer(NelderMeadOptions options = {});

    std::string_view name() const override { return "nelder-mead"; }

    OptimizeOutcome minimize(const ContinuousObjective& objective,
                             std::vector<double> x0,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    NelderMeadOptions options_;
};

} // namespace cafqa

#endif // CAFQA_OPT_NELDER_MEAD_HPP
