// Regenerates paper Fig. 7: the Bayesian-optimization search trace for
// H2O ground-state energy estimation at 4.0 Angstrom (4x equilibrium).
// The first phase is random warm-up sampling; the model-guided search
// then drives the error toward (and below) chemical accuracy.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_fig07()
{
    banner("Fig. 7: H2O @ 4.0 A — CAFQA discrete search trace");

    const auto system = problems::make_molecular_system("H2O", 4.0);
    const double exact =
        converged_energy(lanczos_ground_state(system.hamiltonian));

    PipelineConfig config = molecular_pipeline_config(system, 1111);
    config.search.warmup = pick(300, 1000);
    config.search.iterations = pick(500, 1000);
    const std::size_t warmup = config.search.warmup;
    const std::size_t iterations = config.search.iterations;

    // The trace is collected through the pipeline observer — one
    // Progress event per objective evaluation.
    CafqaPipeline pipeline(std::move(config));
    std::vector<double> best_trace;
    pipeline.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::Progress) {
            best_trace.push_back(event.best_value);
        }
    });
    const CafqaResult& result = pipeline.run_clifford_search();

    Table trace("Best-so-far energy error vs search iteration");
    trace.set_header({"Iteration", "Phase", "BestEnergyError(Ha)",
                      "WithinChemicalAccuracy"});
    const std::size_t stride =
        std::max<std::size_t>(1, best_trace.size() / 40);
    for (std::size_t i = 0; i < best_trace.size(); ++i) {
        if (i % stride != 0 && i + 1 != best_trace.size()) {
            continue;
        }
        const double error = std::max(best_trace[i] - exact, 1e-10);
        trace.add_row({std::to_string(i + 1),
                       (i < warmup) ? "warmup" : "search",
                       Table::sci(error, 3),
                       error <= chemical_accuracy ? "yes" : "no"});
    }
    trace.print(std::cout);

    Table summary("Summary");
    summary.set_header({"Quantity", "Value"});
    summary.add_row({"Warm-up iterations", std::to_string(warmup)});
    summary.add_row(
        {"Search iterations", std::to_string(iterations)});
    summary.add_row({"HF error (Ha)",
                     Table::sci(system.hf_energy - exact, 3)});
    summary.add_row({"CAFQA error (Ha)",
                     Table::sci(result.best_energy - exact, 3)});
    summary.add_row({"Chemical accuracy (Ha)",
                     Table::sci(chemical_accuracy, 3)});
    summary.add_row({"Best found at evaluation",
                     std::to_string(result.evaluations_to_best)});
    summary.print(std::cout);
}

void
BM_BoIterationH2O(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("H2O", 4.0);
    static const VqaObjective objective = problems::make_objective(system);
    CliffordEvaluator evaluator(system.ansatz);
    Rng rng(1);
    std::vector<int> steps(system.ansatz.num_params());
    for (auto _ : state) {
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
        evaluator.prepare(steps);
        benchmark::DoNotOptimize(objective.evaluate(evaluator));
    }
}
BENCHMARK(BM_BoIterationH2O);

} // namespace

int
main(int argc, char** argv)
{
    print_fig07();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
