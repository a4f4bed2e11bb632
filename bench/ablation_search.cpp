// Ablation: CAFQA's search-strategy choice (paper Section 5). The paper
// selects Bayesian optimization with a random-forest surrogate and a
// greedy acquisition over the discrete Clifford space; this bench runs
// every discrete strategy registered in the optimizer registry at an
// identical evaluation budget and emits one comparison table (best
// energy error, evaluations to chemical accuracy, wall time) per
// molecule — so the paper's search ablation reproduces with one binary,
// and a newly registered strategy joins the comparison automatically.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "core/evaluator.hpp"
#include "opt/optimizer_registry.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
compare_on(const std::string& molecule, double bond, std::uint64_t seed,
           std::size_t budget)
{
    const auto problem = problems::make_problem(
        "molecule:" + molecule + "?bond=" + format_real(bond));
    CliffordEvaluator evaluator(problem.ansatz);
    auto objective_fn = [&](const std::vector<int>& steps) {
        evaluator.prepare(steps);
        return problem.objective.evaluate(evaluator);
    };
    const DiscreteSpace space = clifford_search_space(problem.ansatz);
    const double exact = problem.exact_energy().value();

    Table table(molecule + " @ " + Table::num(bond, 2) + " A, " +
                std::to_string(budget) + "-evaluation budget, space 10^" +
                Table::num(space.log10_size(), 1));
    table.set_header({"Strategy", "Error(Ha)", "EvalsToChemAcc",
                      "EvalsToBest", "Stop", "Wall(ms)"});

    StoppingCriteria criteria;
    criteria.max_evaluations = budget;

    for (const std::string& kind : registered_discrete_optimizers()) {
        const auto optimizer =
            make_discrete_optimizer(strategy_config(kind, budget, seed));
        const auto start = std::chrono::steady_clock::now();
        const OptimizeOutcome outcome =
            optimizer->minimize(objective_fn, space, criteria);
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - start;

        // First evaluation whose running best is chemically accurate.
        std::string to_accuracy = "-";
        for (std::size_t i = 0; i < outcome.best_trace.size(); ++i) {
            if (outcome.best_trace[i] <= exact + chemical_accuracy) {
                to_accuracy = std::to_string(i + 1);
                break;
            }
        }

        table.add_row(
            {kind,
             Table::sci(std::max(outcome.best_value - exact, 1e-10), 2),
             to_accuracy, std::to_string(outcome.evaluations_to_best),
             std::string(to_string(outcome.stop_reason)),
             Table::num(wall.count(), 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
print_ablation()
{
    banner("Ablation: search strategy over the Clifford space (Section 5)");
    compare_on("H2", 2.2, 71, pick(300, 1500));
    compare_on("LiH", 3.4, 71, pick(400, 2000));
    std::cout << "Expected trend (paper Section 5): the RF-surrogate BO"
                 " matches or beats the unguided baselines at equal"
                 " budgets, most visibly on the larger LiH space where"
                 " exhaustive enumeration is hopeless.\n";
}

void
BM_SurrogatePredict(benchmark::State& state)
{
    Rng rng(3);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 300; ++i) {
        std::vector<double> row(40);
        for (auto& v : row) {
            v = static_cast<double>(rng.uniform_int(0, 3));
        }
        x.push_back(std::move(row));
        y.push_back(rng.normal());
    }
    RandomForest forest;
    forest.fit(x, y, 1, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(forest.predict(x[7]));
    }
}
BENCHMARK(BM_SurrogatePredict);

} // namespace

int
main(int argc, char** argv)
{
    print_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
