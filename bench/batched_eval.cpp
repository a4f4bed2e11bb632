// Micro-benchmark for the unified backend API's two batching axes:
//
//   1. Observable batching — evaluating a Hamiltonian term-by-term with
//      a state re-preparation per term, vs preparing once and measuring
//      all terms through `Backend::expectations` (the access pattern of
//      `VqaObjective::evaluate_prepared`).
//   2. Candidate batching — the CAFQA warm-up phase evaluated serially
//      vs fanned out across the thread pool with per-worker backend
//      clones (the path `CafqaPipeline` uses via
//      `SearchContext::batch`).
//
// Prints speedup tables; the thread-pool numbers depend on the core
// count of the machine (expect >1.5x at 4+ cores, ~1x on 1 core).

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/backend_registry.hpp"
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

/** One PauliSum per Hamiltonian term (the per-term observable list). */
std::vector<PauliSum>
split_terms(const PauliSum& op)
{
    std::vector<PauliSum> singles;
    singles.reserve(op.num_terms());
    for (const auto& term : op.terms()) {
        PauliSum single(op.num_qubits());
        single.add_term(term.coefficient, term.string);
        singles.push_back(std::move(single));
    }
    return singles;
}

void
print_observable_batching(const problems::MolecularSystem& system)
{
    const std::vector<PauliSum> terms = split_terms(system.hamiltonian);
    const std::vector<double> params(system.ansatz.num_params(), 0.7);
    const std::size_t repeats = pick(20, 100);

    BackendConfig config;
    config.kind = "statevector";
    config.ansatz = system.ansatz;
    const auto backend = make_continuous_backend(config);

    // (a) re-prepare the state for every term.
    auto start = std::chrono::steady_clock::now();
    double naive_sum = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
        for (const PauliSum& term : terms) {
            backend->prepare(params);
            naive_sum += backend->expectation(term);
        }
    }
    const double naive_s = seconds_since(start);

    // (b) prepare once, measure every term on the prepared state.
    start = std::chrono::steady_clock::now();
    double batched_sum = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) {
        backend->prepare(params);
        for (const double value : backend->expectations(terms)) {
            batched_sum += value;
        }
    }
    const double batched_s = seconds_since(start);

    Table table("Per-term (re-prepare) vs batched expectation, " +
                std::to_string(terms.size()) + " Hamiltonian terms x " +
                std::to_string(repeats) + " evaluations");
    table.set_header({"Path", "Time(s)", "Speedup(x)", "Energy check"});
    table.add_row({"prepare per term", Table::num(naive_s, 3),
                   Table::num(1.0, 2), Table::num(naive_sum, 6)});
    table.add_row({"prepare once + expectations()",
                   Table::num(batched_s, 3),
                   Table::num(naive_s / std::max(batched_s, 1e-12), 2),
                   Table::num(batched_sum, 6)});
    table.print(std::cout);
}

/** The pipeline's warm-up block: evaluate every candidate's objective
 *  with `threads` workers (per-worker backend clones). */
double
warmup_block_seconds(const CliffordEvaluator& prototype,
                     const VqaObjective& objective,
                     const std::vector<PauliSum>& observables,
                     const std::vector<std::vector<int>>& candidates,
                     std::size_t threads, std::vector<double>& values)
{
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<DiscreteBackend>> clones(pool.size());
    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(
        candidates.size(), [&](std::size_t worker, std::size_t index) {
            auto& backend = clones[worker];
            if (!backend) {
                backend = prototype.clone_discrete();
            }
            backend->prepare(candidates[index]);
            values[index] =
                objective.combine(backend->expectations(observables));
        });
    return seconds_since(start);
}

void
print_candidate_batching(const problems::MolecularSystem& system)
{
    const VqaObjective objective = problems::make_objective(system);
    const std::vector<PauliSum> observables =
        objective.gather_observables();
    const CliffordEvaluator prototype(system.ansatz);

    Rng rng(2023);
    std::vector<std::vector<int>> candidates(pick(256, 2048));
    for (auto& steps : candidates) {
        steps.resize(system.ansatz.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
    }

    const std::size_t cores = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());

    std::vector<double> serial_values(candidates.size());
    const double serial_s =
        warmup_block_seconds(prototype, objective, observables,
                             candidates, 1, serial_values);

    std::vector<double> pooled_values(candidates.size());
    const double pooled_s =
        warmup_block_seconds(prototype, objective, observables,
                             candidates, cores, pooled_values);

    double max_diff = 0.0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        max_diff = std::max(
            max_diff, std::abs(serial_values[i] - pooled_values[i]));
    }

    Table table("Serial vs thread-pool warm-up, " +
                std::to_string(candidates.size()) + " candidates (" +
                std::to_string(cores) + " hardware threads)");
    table.set_header({"Path", "Time(s)", "Speedup(x)", "MaxValueDiff"});
    table.add_row({"serial", Table::num(serial_s, 3), Table::num(1.0, 2),
                   "-"});
    table.add_row({"thread pool", Table::num(pooled_s, 3),
                   Table::num(serial_s / std::max(pooled_s, 1e-12), 2),
                   Table::sci(max_diff, 1)});
    table.print(std::cout);
    if (cores < 4) {
        std::cout << "(fewer than 4 hardware threads: the pooled path "
                     "cannot show its >1.5x speedup here)\n\n";
    }
}

void
print_batched_eval()
{
    banner("Batched evaluation microbenchmark (backend API)");
    const auto h2 = problems::make_molecular_system("H2", 2.2);
    const auto lih = problems::make_molecular_system("LiH", 2.4);

    std::cout << "== H2 (2 qubits, fig05-class problem) ==\n";
    print_observable_batching(h2);
    print_candidate_batching(h2);

    std::cout << "== LiH (4 qubits) ==\n";
    print_observable_batching(lih);
    print_candidate_batching(lih);
}

void
BM_ExpectationsBatched(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 2.4);
    static const std::vector<PauliSum> terms =
        split_terms(system.hamiltonian);
    IdealEvaluator backend(system.ansatz);
    backend.prepare(std::vector<double>(system.ansatz.num_params(), 0.7));
    for (auto _ : state) {
        benchmark::DoNotOptimize(backend.expectations(terms));
    }
}
BENCHMARK(BM_ExpectationsBatched);

void
BM_ExpectationsPerTermReprepare(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 2.4);
    static const std::vector<PauliSum> terms =
        split_terms(system.hamiltonian);
    IdealEvaluator backend(system.ansatz);
    const std::vector<double> params(system.ansatz.num_params(), 0.7);
    for (auto _ : state) {
        double sum = 0.0;
        for (const PauliSum& term : terms) {
            backend.prepare(params);
            sum += backend.expectation(term);
        }
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_ExpectationsPerTermReprepare);

} // namespace

int
main(int argc, char** argv)
{
    print_batched_eval();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
