#include "opt/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace cafqa {

NelderMeadOptimizer::NelderMeadOptimizer(NelderMeadOptions options)
    : options_(options)
{
}

OptimizeOutcome
NelderMeadOptimizer::minimize(const ContinuousObjective& objective,
                              std::vector<double> x0,
                              const StoppingCriteria& criteria,
                              const SearchContext& context)
{
    CAFQA_REQUIRE(!x0.empty(), "empty start point");
    const std::size_t n = x0.size();
    const std::size_t max_evaluations = criteria.max_evaluations > 0
        ? criteria.max_evaluations
        : options_.max_evaluations;
    OutcomeRecorder recorder(criteria, max_evaluations, context.progress);

    struct Vertex
    {
        std::vector<double> x;
        double f;
    };

    auto eval = [&](const std::vector<double>& x) {
        const double value = objective(x);
        recorder.record(x, value);
        return value;
    };

    StopReason reason = max_evaluations > 0 ? StopReason::Converged
                                            : StopReason::BudgetExhausted;
    try {
        std::vector<Vertex> simplex;
        simplex.push_back({x0, eval(x0)});
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> x = x0;
            x[i] += options_.initial_step;
            simplex.push_back({x, eval(x)});
        }

        auto by_f = [](const Vertex& a, const Vertex& b) {
            return a.f < b.f;
        };

        // An explicit zero budget (options and criteria both 0) keeps
        // the historical meaning: evaluate the initial simplex only.
        while (max_evaluations > 0) {
            std::sort(simplex.begin(), simplex.end(), by_f);
            if (simplex.back().f - simplex.front().f <
                options_.f_tolerance) {
                break;
            }

            // Centroid of all but the worst vertex.
            std::vector<double> centroid(n, 0.0);
            for (std::size_t v = 0; v < n; ++v) {
                for (std::size_t i = 0; i < n; ++i) {
                    centroid[i] += simplex[v].x[i] / static_cast<double>(n);
                }
            }
            Vertex& worst = simplex.back();

            auto blend = [&](double factor) {
                std::vector<double> x(n);
                for (std::size_t i = 0; i < n; ++i) {
                    x[i] = centroid[i] + factor * (worst.x[i] - centroid[i]);
                }
                return x;
            };

            const std::vector<double> reflected = blend(-1.0);
            const double f_reflected = eval(reflected);

            if (f_reflected < simplex.front().f) {
                const std::vector<double> expanded = blend(-2.0);
                const double f_expanded = eval(expanded);
                if (f_expanded < f_reflected) {
                    worst = {expanded, f_expanded};
                } else {
                    worst = {reflected, f_reflected};
                }
            } else if (f_reflected < simplex[n - 1].f) {
                worst = {reflected, f_reflected};
            } else {
                const std::vector<double> contracted = blend(0.5);
                const double f_contracted = eval(contracted);
                if (f_contracted < worst.f) {
                    worst = {contracted, f_contracted};
                } else {
                    // Shrink toward the best vertex.
                    for (std::size_t v = 1; v < simplex.size(); ++v) {
                        for (std::size_t i = 0; i < n; ++i) {
                            simplex[v].x[i] = simplex[0].x[i] +
                                0.5 * (simplex[v].x[i] - simplex[0].x[i]);
                        }
                        simplex[v].f = eval(simplex[v].x);
                    }
                }
            }
        }
    } catch (const OutcomeRecorder::EarlyStop&) {
        reason = StopReason::BudgetExhausted; // recorder reason wins
    }

    return recorder.finish(reason);
}

} // namespace cafqa
