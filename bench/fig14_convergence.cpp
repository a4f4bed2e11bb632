// Regenerates paper Fig. 14: post-CAFQA VQA tuning for LiH at 4.8 A.
// Four runs: {CAFQA-init, HF-init} x {noise-free, noisy machine}. The
// paper's headline: CAFQA initialization converges ~2.5x faster than HF
// initialization on both backends.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "common/table.hpp"
#include "core/clifford_ansatz.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_fig14()
{
    banner("Fig. 14: post-CAFQA VQA tuning for LiH @ 4.8 A");

    const auto system = problems::make_molecular_system("LiH", 4.8);
    VqaObjective objective;
    objective.hamiltonian = system.hamiltonian;
    const double exact =
        converged_energy(lanczos_ground_state(system.hamiltonian));

    const CafqaResult cafqa = run_molecular_cafqa(system, 1414);
    const std::vector<double> cafqa_init =
        steps_to_angles(cafqa.best_steps);
    const std::vector<double> hf_init = steps_to_angles(
        efficient_su2_bitstring_steps(system.num_qubits, system.hf_bits));

    // Milder noise than the Fig. 5 surrogates: Fig. 14's noisy curves
    // land within ~1e-2 Hartree of the exact answer.
    const NoiseModel noisy{"nisq-surrogate", 0.002, 0.015, 0.002};

    VqaTunerOptions tuner;
    tuner.iterations = pick(400, 1000);

    struct Run
    {
        std::string label;
        VqaTuneResult result;
    };
    std::vector<Run> runs;
    {
        VqaTunerOptions ideal = tuner;
        ideal.seed = 11;
        runs.push_back({"CAFQA noise-free",
                        CafqaPipeline({.ansatz = system.ansatz,
                                       .objective = objective, .tuner = ideal})
                            .run_vqa_tune(cafqa_init)});
        ideal.seed = 12;
        runs.push_back({"HF noise-free",
                        CafqaPipeline({.ansatz = system.ansatz,
                                       .objective = objective, .tuner = ideal})
                            .run_vqa_tune(hf_init)});
        VqaTunerOptions noisy_opts = tuner;
        noisy_opts.noise = noisy;
        noisy_opts.seed = 13;
        runs.push_back({"CAFQA noisy",
                        CafqaPipeline({.ansatz = system.ansatz,
                                       .objective = objective,
                                       .tuner = noisy_opts})
                            .run_vqa_tune(cafqa_init)});
        noisy_opts.seed = 14;
        runs.push_back({"HF noisy",
                        CafqaPipeline({.ansatz = system.ansatz,
                                       .objective = objective,
                                       .tuner = noisy_opts})
                            .run_vqa_tune(hf_init)});
    }

    Table trace("Energy vs tuning iteration (Hartree)");
    std::vector<std::string> header = {"Iteration"};
    for (const auto& run : runs) {
        header.push_back(run.label);
    }
    header.push_back("Exact");
    trace.set_header(header);
    // trace[0] is the initialization's own energy; trace[i] the value
    // after tuning step i.
    const std::size_t total = runs[0].result.trace.size();
    const std::size_t stride = std::max<std::size_t>(1, total / 25);
    for (std::size_t i = 0; i < total; i += stride) {
        std::vector<std::string> row = {std::to_string(i)};
        for (const auto& run : runs) {
            row.push_back(Table::num(run.result.trace[i], 5));
        }
        row.push_back(Table::num(exact, 5));
        trace.add_row(row);
    }
    trace.print(std::cout);

    Table summary("Convergence (iterations to within 5e-3 Ha of final)");
    summary.set_header({"Run", "InitialEnergy", "FinalEnergy",
                        "IterationsToConverge"});
    std::vector<std::size_t> iters;
    for (const auto& run : runs) {
        const std::size_t it =
            iterations_to_converge(run.result.trace, 5e-3);
        iters.push_back(it);
        summary.add_row({run.label,
                         Table::num(run.result.trace.front(), 5),
                         Table::num(run.result.final_value, 5),
                         std::to_string(it)});
    }
    summary.print(std::cout);

    const double ideal_speedup =
        static_cast<double>(iters[1]) / std::max<std::size_t>(iters[0], 1);
    const double noisy_speedup =
        static_cast<double>(iters[3]) / std::max<std::size_t>(iters[2], 1);
    Table speedup("CAFQA-vs-HF convergence speedup");
    speedup.set_header({"Backend", "Speedup(x)", "Paper reports"});
    speedup.add_row({"noise-free", Table::num(ideal_speedup, 2), "~2.5x"});
    speedup.add_row({"noisy", Table::num(noisy_speedup, 2), "~2.5x"});
    speedup.print(std::cout);
}

void
BM_NoisySpsaStep(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 4.8);
    const NoiseModel noisy{"nisq-surrogate", 0.002, 0.015, 0.002};
    NoisyEvaluator evaluator(system.ansatz, noisy);
    std::vector<double> params(system.ansatz.num_params(), 0.3);
    for (auto _ : state) {
        evaluator.prepare(params);
        benchmark::DoNotOptimize(
            evaluator.expectation(system.hamiltonian));
        params[0] += 0.01;
    }
}
BENCHMARK(BM_NoisySpsaStep)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    print_fig14();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
