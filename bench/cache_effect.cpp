// Effect of the memoizing evaluation cache (core/caching_backend.hpp)
// on the discrete CAFQA search: for each molecule and search strategy,
// run the identical pipeline with the cache off and on and report hit
// rate, backend evaluations saved (state preparations avoided), and the
// wall-time reduction. The cache is a pure memoizer, so both runs
// follow the same trajectory and must land on exactly the same best
// energy — the last column checks it.
//
// "bayes" deduplicates its own candidates, so its hit rate is near
// zero by construction; "anneal" re-visits constantly and shows the
// cache's real effect. Microbenchmark kernels at the end time a cache
// hit against a full stabilizer re-preparation.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/caching_backend.hpp"
#include "core/evaluator.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct RunResult
{
    double best_energy = 0.0;
    std::size_t evaluations = 0;
    double seconds = 0.0;
    std::optional<CacheStats> cache;
};

RunResult
run_search(const problems::MolecularSystem& system,
           const std::string& search_kind, bool cached)
{
    PipelineConfig config = molecular_pipeline_config(system, 2024);
    config.search.warmup = pick(120, 1000);
    config.search.iterations = pick(160, 1000);
    config.search_optimizer = search_kind;
    if (cached) {
        config.cache = std::make_shared<EvaluationCache>(CacheOptions{});
    }

    CafqaPipeline pipeline(std::move(config));
    RunResult result;
    pipeline.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::StageEnd &&
            event.cache != nullptr) {
            result.cache = *event.cache;
        }
    });

    const auto start = std::chrono::steady_clock::now();
    const CafqaResult& search = pipeline.run_clifford_search();
    result.seconds = seconds_since(start);
    result.best_energy = search.best_energy;
    result.evaluations = search.history.size();
    return result;
}

void
print_cache_effect()
{
    banner("Memoizing-cache effect on the discrete CAFQA search");

    const std::pair<const char*, double> molecules[] = {
        {"H2", 2.2}, {"LiH", 2.4}, {"H2O", 4.0}};
    const char* strategies[] = {"bayes", "anneal"};

    Table table("Cache off vs on, identical trajectories "
                "(EvalsSaved = state preparations avoided)");
    table.set_header({"Molecule", "Search", "Evals", "HitRate(%)",
                      "EvalsSaved", "T_off(s)", "T_on(s)", "Saved(%)",
                      "EnergyMatch"});

    for (const auto& [name, bond] : molecules) {
        const auto system = problems::make_molecular_system(name, bond);
        for (const char* strategy : strategies) {
            const RunResult off = run_search(system, strategy, false);
            const RunResult on = run_search(system, strategy, true);

            // The uncached stage prepares once per recorded evaluation
            // plus once for the final energy read-out.
            const std::size_t preps_off = off.evaluations + 1;
            const std::size_t preps_on =
                on.cache ? on.cache->preparations : preps_off;
            const std::size_t saved =
                preps_off > preps_on ? preps_off - preps_on : 0;
            const double hit_rate =
                on.cache ? 100.0 * on.cache->hit_rate() : 0.0;
            const double time_saved = off.seconds > 1e-12
                ? 100.0 * (off.seconds - on.seconds) / off.seconds
                : 0.0;
            const bool match = off.best_energy == on.best_energy;

            table.add_row({name, strategy,
                           std::to_string(off.evaluations),
                           Table::num(hit_rate, 1), std::to_string(saved),
                           Table::num(off.seconds, 3),
                           Table::num(on.seconds, 3),
                           Table::num(time_saved, 1),
                           match ? "yes" : "NO"});
        }
    }
    table.print(std::cout);
    std::cout << "(bayes deduplicates its own proposals, so its hit rate "
                 "is structurally ~0;\n annealing's re-visits are where "
                 "memoization pays off)\n\n";
}

void
BM_CliffordEvalUncached(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 2.4);
    static const PauliSum& op = system.hamiltonian;
    CliffordEvaluator backend(system.ansatz);
    const std::vector<int> steps(system.ansatz.num_params(), 1);
    for (auto _ : state) {
        backend.prepare(steps);
        benchmark::DoNotOptimize(backend.expectation(op));
    }
}
BENCHMARK(BM_CliffordEvalUncached);

void
BM_CliffordEvalCachedHit(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 2.4);
    static const PauliSum& op = system.hamiltonian;
    CacheOptions options;
    options.enabled = true;
    CachingDiscreteBackend backend(
        std::make_unique<CliffordEvaluator>(system.ansatz), options);
    const std::vector<int> steps(system.ansatz.num_params(), 1);
    backend.prepare(steps);
    benchmark::DoNotOptimize(backend.expectation(op)); // warm the entry
    for (auto _ : state) {
        backend.prepare(steps);
        benchmark::DoNotOptimize(backend.expectation(op));
    }
}
BENCHMARK(BM_CliffordEvalCachedHit);

} // namespace

int
main(int argc, char** argv)
{
    print_cache_effect();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
