/**
 * @file
 * Example: the full CAFQA-then-VQA pipeline of paper Fig. 4 — classical
 * Clifford-space bootstrap, then continuous SPSA tuning on a simulated
 * noisy machine, compared against starting from Hartree-Fock.
 *
 * Usage: noisy_vqa_pipeline [bond_length_angstrom] [iterations] [tuner]
 *
 * `tuner` is any continuous optimizer-registry kind ("spsa" default,
 * "nelder-mead" for the noise-free baseline) — the pipeline swaps the
 * strategy without any other change.
 */
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/text.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/pipeline.hpp"
#include "problems/problem.hpp"
#include "statevector/lanczos.hpp"

int
main(int argc, char** argv)
{
    using namespace cafqa;

    const double bond = (argc > 1) ? std::atof(argv[1]) : 4.2;
    const std::size_t iterations =
        (argc > 2) ? static_cast<std::size_t>(std::atoi(argv[2])) : 250;
    const std::string tuner_kind = (argc > 3) ? argv[3] : "spsa";

    const auto problem = problems::make_problem(
        "molecule:LiH?bond=" + format_real(bond));
    VqaObjective objective;
    objective.hamiltonian = problem.hamiltonian();

    // ---- Both stages through one pipeline: the discrete CAFQA search
    //      (red box of Fig. 4) feeds its best point straight into the
    //      noisy continuous tuning (blue box). ----
    VqaTunerOptions tuner;
    tuner.iterations = iterations;
    tuner.noise = NoiseModel{"nisq-surrogate", 0.002, 0.015, 0.002};
    tuner.seed = 1;

    PipelineConfig config;
    config.ansatz = problem.ansatz;
    config.objective = problem.objective;
    config.search = {.warmup = 150, .iterations = 200, .seed = 21};
    config.search.seed_steps = problem.seed_steps;
    config.tuner = tuner;

    CafqaPipeline pipeline(std::move(config));
    const CafqaResult& cafqa = pipeline.run_clifford_search();
    std::cout << "CAFQA initialization energy: " << cafqa.best_energy
              << " Ha\n";

    // Note: the pipeline tunes the *constrained* objective; this example
    // follows the paper's Fig. 14 and tunes the bare Hamiltonian, so it
    // uses a second pipeline with an explicit initialization for the HF
    // comparison as well.
    PipelineConfig cafqa_tune;
    cafqa_tune.ansatz = problem.ansatz;
    cafqa_tune.objective = objective;
    cafqa_tune.tuner = tuner;
    cafqa_tune.tuner_optimizer = tuner_kind;
    CafqaPipeline tune_from_cafqa(std::move(cafqa_tune));
    const VqaTuneResult from_cafqa =
        tune_from_cafqa.run_vqa_tune(steps_to_angles(cafqa.best_steps));

    tuner.seed = 2;
    PipelineConfig hf_tune;
    hf_tune.ansatz = problem.ansatz;
    hf_tune.objective = objective;
    hf_tune.tuner = tuner;
    hf_tune.tuner_optimizer = tuner_kind;
    CafqaPipeline tune_from_hf(std::move(hf_tune));
    // The problem's seed steps are the HF determinant's Clifford point.
    const VqaTuneResult from_hf = tune_from_hf.run_vqa_tune(
        steps_to_angles(problem.seed_steps.front()));

    const GroundState exact =
        lanczos_ground_state(problem.hamiltonian());
    const std::size_t it_cafqa =
        iterations_to_converge(from_cafqa.trace, 5e-3);
    const std::size_t it_hf = iterations_to_converge(from_hf.trace, 5e-3);

    std::cout << "Exact ground energy:          " << exact.energy
              << " Ha\n"
              << "Tuner strategy:               " << tuner_kind << "\n"
              << "Noisy VQA from CAFQA init:    " << from_cafqa.final_value
              << " Ha (converged in " << it_cafqa << " iterations)\n"
              << "Noisy VQA from HF init:       " << from_hf.final_value
              << " Ha (converged in " << it_hf << " iterations)\n"
              << "Convergence speedup from CAFQA: "
              << static_cast<double>(it_hf) /
                     static_cast<double>(std::max<std::size_t>(it_cafqa, 1))
              << "x\n";
    return 0;
}
