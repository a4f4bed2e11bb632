/**
 * @file
 * Simultaneous Perturbation Stochastic Approximation (SPSA) — the
 * continuous optimizer the paper uses for post-CAFQA variational tuning
 * on (noisy) quantum hardware (Fig. 4, right box; Fig. 14). Registry
 * key "spsa".
 *
 * SPSA estimates the gradient with two objective evaluations per
 * iteration regardless of dimension, which makes it the standard choice
 * for noisy VQE objectives.
 */
#ifndef CAFQA_OPT_SPSA_HPP
#define CAFQA_OPT_SPSA_HPP

#include <cstdint>
#include <vector>

#include "opt/optimizer.hpp"

namespace cafqa {

/** SPSA hyperparameters (Spall's standard gain sequences). */
struct SpsaOptions
{
    std::size_t iterations = 200;
    double a = 0.2;      ///< step-size numerator
    double c = 0.1;      ///< perturbation magnitude
    double alpha = 0.602; ///< step-size decay exponent
    double gamma = 0.101; ///< perturbation decay exponent
    double stability = 10.0; ///< A in a_k = a / (k + 1 + A)^alpha
    std::uint64_t seed = 1234;
};

/**
 * SPSA minimization (registry key "spsa"). Each iteration makes three
 * objective calls (the +/- gradient probes and one post-step
 * evaluation); the probes count toward `evaluations` but only the
 * start point and the post-step values are recorded in `history`. The
 * probes do not depend on each other: with `SearchContext::
 * continuous_batch` set they go through it as one block of two.
 */
class SpsaOptimizer final : public ContinuousOptimizer
{
  public:
    explicit SpsaOptimizer(SpsaOptions options = {});

    std::string_view name() const override { return "spsa"; }

    OptimizeOutcome minimize(const ContinuousObjective& objective,
                             std::vector<double> x0,
                             const StoppingCriteria& criteria = {},
                             const SearchContext& context = {}) override;

  private:
    SpsaOptions options_;
};

} // namespace cafqa

#endif // CAFQA_OPT_SPSA_HPP
