#include "opt/spsa.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cafqa {

SpsaOptimizer::SpsaOptimizer(SpsaOptions options) : options_(options) {}

OptimizeOutcome
SpsaOptimizer::minimize(const ContinuousObjective& objective,
                        std::vector<double> x0,
                        const StoppingCriteria& criteria,
                        const SearchContext& context)
{
    CAFQA_REQUIRE(!x0.empty(), "empty start point");
    const std::size_t n = x0.size();
    const SpsaOptions& options = options_;
    Rng rng(options.seed);
    OutcomeRecorder recorder(criteria, criteria.max_evaluations,
                             context.progress);

    std::vector<double> x = std::move(x0);
    std::vector<double> delta(n);
    std::vector<double> x_plus(n);
    std::vector<double> x_minus(n);

    try {
        recorder.record(x, objective(x));

        for (std::size_t k = 0; k < options.iterations; ++k) {
            // One iteration needs the two probes plus the post-step
            // evaluation; stop cleanly when they no longer fit.
            if (!recorder.has_budget(3)) {
                break;
            }
            const double a_k =
                options.a /
                std::pow(k + 1.0 + options.stability, options.alpha);
            const double c_k = options.c / std::pow(k + 1.0, options.gamma);

            for (std::size_t i = 0; i < n; ++i) {
                delta[i] = rng.rademacher();
                x_plus[i] = x[i] + c_k * delta[i];
                x_minus[i] = x[i] - c_k * delta[i];
            }
            double f_plus = 0.0;
            double f_minus = 0.0;
            if (context.continuous_batch) {
                const std::vector<double> values =
                    context.continuous_batch({x_plus, x_minus});
                CAFQA_REQUIRE(values.size() == 2,
                              "batch evaluator returned wrong value count");
                f_plus = values[0];
                f_minus = values[1];
            } else {
                f_plus = objective(x_plus);
                f_minus = objective(x_minus);
            }
            recorder.count_evaluation();
            recorder.count_evaluation();
            const double diff = (f_plus - f_minus) / (2.0 * c_k);

            for (std::size_t i = 0; i < n; ++i) {
                x[i] -= a_k * diff / delta[i];
            }

            recorder.record(x, objective(x));
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        // A stopping criterion fired; the recorder holds the reason.
    }

    return recorder.finish(StopReason::BudgetExhausted);
}

} // namespace cafqa
