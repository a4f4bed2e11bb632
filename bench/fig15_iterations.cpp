// Regenerates paper Fig. 15: Bayesian-optimization search iterations for
// CAFQA to converge to its lowest estimate, per VQA problem (molecules
// plus two MaxCut instances), with the mean.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "problems/problem.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

struct ProblemRun
{
    std::string name;
    std::size_t params = 0;
    std::size_t evaluations_to_best = 0;
    double best_energy = 0.0;
};

/** One pure-BO run over a registry problem. This figure measures the
 *  *search* convergence, so the problem's prior seeds (the HF point
 *  for molecules) are deliberately not injected — the paper's
 *  iteration counts are unguided BO runs. */
ProblemRun
run_problem(const std::string& key, std::uint64_t seed)
{
    const auto problem = problems::make_problem(key);
    const CafqaResult result =
        CafqaPipeline({.ansatz = problem.ansatz, .objective = problem.objective,
                       .search = cafqa_budget(problem.num_qubits, seed)})
            .run_clifford_search();
    return ProblemRun{problem.name, result.num_parameters,
                      result.evaluations_to_best, result.best_energy};
}

ProblemRun
run_molecule(const std::string& name, std::uint64_t seed)
{
    const auto info = problems::molecule_info(name);
    // Stretched to twice the equilibrium bond, where the search is
    // nontrivial (format_real round-trips the exact double).
    return run_problem(
        "molecule:" + name + "?bond=" +
            format_real(info.equilibrium_bond_length * 2.0),
        seed);
}

void
print_fig15()
{
    banner("Fig. 15: BO iterations for CAFQA to reach its best estimate");

    std::vector<ProblemRun> runs;
    std::vector<std::string> molecules = {"H2", "LiH", "H6"};
    if (scale() == Scale::Paper) {
        molecules = {"H2", "LiH", "H2O", "N2", "H6", "H10", "NaH", "BeH2"};
    }
    std::uint64_t seed = 15000;
    for (const auto& name : molecules) {
        runs.push_back(run_molecule(name, seed));
        seed += 100;
    }
    runs.push_back(run_problem("maxcut:er-8?p=0.45&seed=77", seed));
    runs.push_back(run_problem("maxcut:ring-10", seed + 1));

    // QAOA-structured ansatz over the same instance: only 2p shared
    // parameters, so the Clifford space is tiny (Section 2.1 notes
    // CAFQA applies to QAOA-style problems as well).
    {
        const auto qaoa = problems::make_problem(
            "maxcut:ring-10?ansatz=qaoa&layers=2");
        const CafqaResult result =
            CafqaPipeline({.ansatz = qaoa.ansatz, .objective = qaoa.objective,
                           .search = {.warmup = 32, .iterations = 64,
                                      .seed = seed + 2}})
                .run_clifford_search();
        runs.push_back(ProblemRun{"ring10-QAOA(p=2)",
                                  result.num_parameters,
                                  result.evaluations_to_best,
                                  result.best_energy});
    }

    Table table("Evaluations to best estimate");
    table.set_header({"Problem", "#Params", "SpaceSize(log10)",
                      "EvalsToBest", "BestEnergy(Ha)"});
    double sum = 0.0;
    for (const auto& run : runs) {
        DiscreteSpace space;
        space.cardinalities.assign(run.params, 4);
        table.add_row({run.name, std::to_string(run.params),
                       Table::num(space.log10_size(), 1),
                       std::to_string(run.evaluations_to_best),
                       Table::num(run.best_energy, 5)});
        sum += static_cast<double>(run.evaluations_to_best);
    }
    table.add_row({"Mean", "-", "-",
                   std::to_string(static_cast<std::size_t>(
                       sum / static_cast<double>(runs.size()))),
                   "-"});
    table.print(std::cout);

    std::cout << "\nPaper reports iteration counts from 2327 (H2) to 27000"
                 " (Cr2) with mean 9808 at its (larger) search budgets;"
                 " the trend to check is iterations growing with"
                 " parameter count.\n";
}

void
BM_ForestRefit(benchmark::State& state)
{
    // The surrogate refit is the dominant per-iteration cost late in a
    // search; measure it at a representative training-set size.
    Rng rng(5);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 500; ++i) {
        std::vector<double> row(40);
        for (auto& v : row) {
            v = static_cast<double>(rng.uniform_int(0, 3));
        }
        y.push_back(rng.normal());
        x.push_back(std::move(row));
    }
    for (auto _ : state) {
        RandomForest forest;
        forest.fit(x, y, 7, {});
        benchmark::DoNotOptimize(forest.predict(x[0]));
    }
}
BENCHMARK(BM_ForestRefit)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    print_fig15();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
