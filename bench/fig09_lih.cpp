// Regenerates paper Fig. 9: LiH dissociation curves (energy, accuracy,
// correlation energy recovered) for CAFQA vs Hartree-Fock vs Exact.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/text.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_fig09()
{
    banner("Fig. 9: LiH dissociation curves");

    const auto info = problems::molecule_info("LiH");
    const auto bonds = linspace(info.min_bond_length, info.max_bond_length,
                                pick(7, 14));

    Table energy("(a) LiH energy (Hartree)");
    energy.set_header({"Bond(A)", "HF", "CAFQA", "Exact"});
    Table accuracy("(b) LiH accuracy: |E - Exact| (Hartree)");
    accuracy.set_header({"Bond(A)", "HF", "CAFQA"});
    Table correlation("(c) LiH correlation energy recovered (%)");
    correlation.set_header({"Bond(A)", "CAFQA"});

    for (const double bond : bonds) {
        const auto problem = problems::make_problem(
            "molecule:LiH?bond=" + format_real(bond));
        const CafqaResult cafqa = run_problem_cafqa(
            problem, 2000 + static_cast<std::uint64_t>(bond * 100));
        const GroundState ground =
            lanczos_ground_state(problem.hamiltonian());
        const double exact = ground.energy;
        const double hf = problem.reference_energy.value();

        energy.add_row(against_exact(
            {Table::num(bond, 2), Table::num(hf, 5),
             Table::num(cafqa.best_energy, 5), Table::num(exact, 5)},
            ground, {3}));
        accuracy.add_row(against_exact(
            {Table::num(bond, 2), Table::sci(std::abs(hf - exact), 2),
             Table::sci(std::max(std::abs(cafqa.best_energy - exact), 1e-10),
                        2)},
            ground, {1, 2}));
        correlation.add_row(against_exact(
            {Table::num(bond, 2),
             Table::num(correlation_recovered_percent(
                            hf, cafqa.best_energy, exact),
                        1)},
            ground, {1}));
    }

    energy.print(std::cout);
    accuracy.print(std::cout);
    correlation.print(std::cout);
}

void
BM_LiHExactReference(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 2.4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lanczos_ground_state(system.hamiltonian).energy);
    }
}
BENCHMARK(BM_LiHExactReference)->Unit(benchmark::kMillisecond)->Iterations(5);

} // namespace

int
main(int argc, char** argv)
{
    print_fig09();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
