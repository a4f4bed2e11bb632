/**
 * @file
 * Example: CAFQA beyond chemistry — initializing a MaxCut (QAOA-style)
 * variational problem through the problem registry. MaxCut optima are
 * computational basis states, so the Clifford space contains the exact
 * optimum and CAFQA can solve the instance outright (paper Fig. 15
 * includes two MaxCut problems).
 *
 * Usage: maxcut_cafqa [num_vertices] [edge_probability]
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/pipeline.hpp"
#include "problems/problem.hpp"

int
main(int argc, char** argv)
try {
    using namespace cafqa;

    const std::size_t n =
        (argc > 1) ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
    const double p = (argc > 2) ? std::atof(argv[2]) : 0.4;

    // One registry key describes the whole instance: an Erdos-Renyi
    // graph with the requested edge probability and a fixed seed; the
    // registry validates the arguments (size >= 2, p in (0, 1]).
    const auto problem = problems::make_problem(
        "maxcut:er-" + std::to_string(n) + "?p=" + std::to_string(p) +
        "&seed=2023");
    std::cout << "MaxCut instance: " << problem.key << " ("
              << problem.detail << ")\n";

    PipelineConfig config;
    config.objective = problem.objective;
    config.ansatz = problem.ansatz;
    config.search = {.warmup = 250, .iterations = 500, .seed = 5};
    // Stop once 200 evaluations in a row bring no improvement.
    config.stopping.patience = 200;

    CafqaPipeline pipeline(std::move(config));
    const CafqaResult& result = pipeline.run_clifford_search();

    const double cafqa_cut = -result.best_energy;
    std::cout << "CAFQA cut value:   " << cafqa_cut << '\n'
              << "Evaluations to best: " << result.evaluations_to_best
              << '\n';
    // The exact solver of a small MaxCut problem is the brute-force
    // optimum (the ground energy is minus the maximum cut weight);
    // above the brute-force limit there is no exact reference.
    if (const auto exact = problem.exact_energy()) {
        const double optimal = -*exact;
        std::cout << "Brute-force optimum: " << optimal << '\n'
                  << (cafqa_cut >= optimal - 1e-9
                          ? "CAFQA found the exact optimum.\n"
                          : "CAFQA found an approximate cut (raise the "
                            "search budget for the optimum).\n");
    } else {
        std::cout << "Instance too large for the brute-force optimum.\n";
    }
    return 0;
} catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
}
