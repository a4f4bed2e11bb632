/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 *
 * Every bench prints the series/rows of one paper table or figure and
 * then runs a few google-benchmark kernels for the hot code paths it
 * exercises. `CAFQA_BENCH_SCALE=paper` switches from the CI-sized
 * default ("quick") to paper-sized search budgets and sweeps.
 */
#ifndef CAFQA_BENCH_BENCH_COMMON_HPP
#define CAFQA_BENCH_BENCH_COMMON_HPP

#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/pipeline.hpp"
#include "opt/optimizer_registry.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "statevector/lanczos.hpp"

namespace cafqa::bench {

/** Chemical accuracy threshold in Hartree (paper Section 2.1). */
constexpr double chemical_accuracy = 1.6e-3;

/** Bench sizing. */
enum class Scale { Quick, Paper };

inline Scale
scale()
{
    const char* env = std::getenv("CAFQA_BENCH_SCALE");
    if (env != nullptr && std::string(env) == "paper") {
        return Scale::Paper;
    }
    return Scale::Quick;
}

inline const char*
scale_name()
{
    return scale() == Scale::Paper ? "paper" : "quick";
}

/** Pick a size by scale. */
inline std::size_t
pick(std::size_t quick, std::size_t paper)
{
    return scale() == Scale::Paper ? paper : quick;
}

/** Evenly spaced sweep (inclusive endpoints). */
inline std::vector<double>
linspace(double lo, double hi, std::size_t points)
{
    std::vector<double> out;
    if (points == 1) {
        out.push_back(lo);
        return out;
    }
    for (std::size_t i = 0; i < points; ++i) {
        out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                               static_cast<double>(points - 1));
    }
    return out;
}

/** Percentage of HF-missed correlation energy recovered by CAFQA
 *  (paper metric 3), clamped to [0, 100]. */
inline double
correlation_recovered_percent(double hf, double cafqa, double exact)
{
    const double denom = hf - exact;
    if (denom <= 1e-12) {
        return 100.0;
    }
    const double recovered = (hf - cafqa) / denom * 100.0;
    return std::max(0.0, std::min(100.0, recovered));
}

/** Default CAFQA budget for a system size, by scale. */
inline CafqaOptions
cafqa_budget(std::size_t num_qubits, std::uint64_t seed)
{
    CafqaOptions options;
    options.seed = seed;
    if (scale() == Scale::Paper) {
        options.warmup = 1000;
        options.iterations = 1000;
    } else {
        options.warmup = (num_qubits <= 4) ? 100 : 150;
        options.iterations = (num_qubits <= 4) ? 120 : 200;
    }
    return options;
}

/**
 * CAFQA budget for a molecular system, with the Hartree-Fock point
 * prior-injected into the search (guaranteeing CAFQA <= HF, the paper's
 * "equal to or better than" property).
 */
inline CafqaOptions
molecular_budget(const problems::MolecularSystem& system,
                 std::uint64_t seed)
{
    CafqaOptions options = cafqa_budget(system.num_qubits, seed);
    options.seed_steps.push_back(efficient_su2_bitstring_steps(
        system.num_qubits, system.hf_bits));
    return options;
}

/**
 * Pipeline configuration for a registry problem: objective, ansatz and
 * prior-injection seeds from the problem, scale-aware budget. Ready for
 * `CafqaPipeline` (set `tuner`/`threads` as needed before
 * constructing).
 */
inline PipelineConfig
problem_pipeline_config(const problems::Problem& problem,
                        std::uint64_t seed)
{
    PipelineConfig config;
    config.ansatz = problem.ansatz;
    config.objective = problem.objective;
    config.search = cafqa_budget(problem.num_qubits, seed);
    config.search.seed_steps = problem.seed_steps;
    return config;
}

/** Run just the Clifford-search stage for a registry problem. */
inline CafqaResult
run_problem_cafqa(const problems::Problem& problem, std::uint64_t seed)
{
    CafqaPipeline pipeline(problem_pipeline_config(problem, seed));
    return pipeline.run_clifford_search();
}

/**
 * Same for an already-built molecular system (benches that need custom
 * sector options go through `make_molecular_system` directly; the
 * wiring matches `problem_pipeline_config` over the molecule family).
 */
inline PipelineConfig
molecular_pipeline_config(const problems::MolecularSystem& system,
                          std::uint64_t seed)
{
    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search = molecular_budget(system, seed);
    return config;
}

/** Run just the Clifford-search stage for a molecular system. */
inline CafqaResult
run_molecular_cafqa(const problems::MolecularSystem& system,
                    std::uint64_t seed)
{
    CafqaPipeline pipeline(molecular_pipeline_config(system, seed));
    return pipeline.run_clifford_search();
}

/** Same, with an explicit objective (sector constraints etc.). */
inline CafqaResult
run_molecular_cafqa(const problems::MolecularSystem& system,
                    std::uint64_t seed, const VqaObjective& objective)
{
    PipelineConfig config = molecular_pipeline_config(system, seed);
    config.objective = objective;
    CafqaPipeline pipeline(std::move(config));
    return pipeline.run_clifford_search();
}

/** The energy of a converged exact solve. A bench whose every number
 *  derives from one exact reference stops with a CafqaError when that
 *  solve hit the Lanczos iteration cap. */
inline double
converged_energy(const GroundState& exact)
{
    if (!exact.converged) {
        throw CafqaError("exact solve stopped at the Lanczos cap after " +
                         std::to_string(exact.iterations) +
                         " iterations (last Ritz change " +
                         std::to_string(exact.ritz_change) + " Ha)");
    }
    return exact.energy;
}

/** `row` as is when the exact solve converged; otherwise with the
 *  cells at `columns`, the ones derived from the exact energy, replaced
 *  by "unconverged". */
inline std::vector<std::string>
against_exact(std::vector<std::string> row, const GroundState& exact,
              std::initializer_list<std::size_t> columns)
{
    if (!exact.converged) {
        for (const std::size_t column : columns) {
            row.at(column) = "unconverged";
        }
    }
    return row;
}

/** A bare strategy at an evaluation budget, as the search benches
 *  compare them: "bayes" splits the budget into warm-up and model-guided
 *  halves (the paper's setup); every other strategy runs off the
 *  caller's stopping criteria. Annealing cools from 0.5 to 1e-3. */
inline OptimizerConfig
strategy_config(const std::string& kind, std::size_t budget,
                std::uint64_t seed)
{
    OptimizerConfig config = optimizer_config(kind);
    config.seed = seed;
    config.bayes.warmup = budget / 2;
    config.bayes.iterations = budget - budget / 2;
    config.anneal.initial_temperature = 0.5;
    config.anneal.final_temperature = 1e-3;
    return config;
}

/** Standard bench banner. */
inline void
banner(const std::string& what)
{
    std::cout << "# " << what << "\n# scale: " << scale_name()
              << " (set CAFQA_BENCH_SCALE=paper for paper-sized budgets)\n"
              << std::endl;
}

} // namespace cafqa::bench

#endif // CAFQA_BENCH_BENCH_COMMON_HPP
