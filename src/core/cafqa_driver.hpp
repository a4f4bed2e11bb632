/**
 * @file
 * CAFQA search option and result types (paper Section 3, red box of
 * Fig. 4): the budget of the discrete Clifford search and the
 * initializations it produces. The search itself runs through the
 * `CafqaPipeline` facade (`core/pipeline.hpp`).
 */
#ifndef CAFQA_CORE_CAFQA_DRIVER_HPP
#define CAFQA_CORE_CAFQA_DRIVER_HPP

#include "circuit/circuit.hpp"
#include "opt/optimizer.hpp"

namespace cafqa {

/** CAFQA search-stage controls. The algorithm knobs of the search
 *  strategy live in `PipelineConfig::search_optimizer`. */
struct CafqaOptions
{
    /** Random warm-up evaluations (paper Fig. 7 uses 1000). */
    std::size_t warmup = 200;
    /** Model-guided search evaluations. */
    std::size_t iterations = 300;
    std::uint64_t seed = 2023;
    /** Step assignments evaluated before the warm-up (prior injection).
     *  Seeding the Hartree-Fock point guarantees CAFQA never returns a
     *  state worse than the HF baseline — the paper's "equal to or
     *  better than" property. */
    std::vector<std::vector<int>> seed_steps{};
};

/** Search outcome: the Clifford initialization for subsequent VQA. */
struct CafqaResult
{
    /** Best quarter-turn assignment (one entry per ansatz parameter). */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** Objective of every evaluation in order. */
    std::vector<double> history;
    /** Running best objective. */
    std::vector<double> best_trace;
    /** Evaluation count at which the best configuration appeared
     *  (Fig. 15 metric). */
    std::size_t evaluations_to_best = 0;
    std::size_t num_parameters = 0;
    /** Why the search ended (budget, target-value early exit, ...). */
    StopReason stop_reason = StopReason::BudgetExhausted;
};

/**
 * Outcome of the greedy Clifford + kT boost stage (paper Section 8 /
 * Fig. 16). When no T insertion improves the objective, `t_positions`
 * is empty and the fields echo the Clifford-stage optimum over the
 * unmodified ansatz.
 */
struct TBoostResult
{
    /** Rotation-slot indices where T gates were inserted, in acceptance
     *  order. */
    std::vector<std::size_t> t_positions;
    /** Best quarter-turn assignment over `circuit`. */
    std::vector<int> best_steps;
    /** Bare Hamiltonian expectation at the best steps. */
    double best_energy = 0.0;
    /** Objective (energy + penalties) at the best steps. */
    double best_objective = 0.0;
    /** The ansatz with the accepted T gates inserted. */
    Circuit circuit;
};

} // namespace cafqa

#endif // CAFQA_CORE_CAFQA_DRIVER_HPP
