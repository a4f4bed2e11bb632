// Regenerates paper Fig. 10: H2O dissociation curves. CAFQA is run in
// both the singlet and triplet sectors — the paper observes a kink near
// 1.5 Angstrom where the lowest singlet and triplet states cross — and
// the reported CAFQA value is the lower of the two.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_fig10()
{
    banner("Fig. 10: H2O dissociation curves (singlet/triplet sectors)");

    const auto info = problems::molecule_info("H2O");
    const auto bonds = linspace(info.min_bond_length, info.max_bond_length,
                                pick(5, 8));

    Table energy("(a) H2O energy (Hartree)");
    energy.set_header({"Bond(A)", "HF", "CAFQA(s)", "CAFQA(t)", "CAFQA",
                       "Exact", "SCFconv"});
    Table accuracy("(b) H2O accuracy: |E - Exact| (Hartree)");
    accuracy.set_header({"Bond(A)", "HF", "CAFQA", "CAFQA<=ChemAcc"});
    Table correlation("(c) H2O correlation energy recovered (%)");
    correlation.set_header({"Bond(A)", "CAFQA"});

    for (const double bond : bonds) {
        const auto singlet = problems::make_molecular_system("H2O", bond);
        const CafqaResult cafqa_s = run_molecular_cafqa(
            singlet, 3000 + static_cast<std::uint64_t>(bond * 100));

        problems::MolecularSystemOptions triplet_options;
        triplet_options.sector_spin_2sz = 2;
        const auto triplet =
            problems::make_molecular_system("H2O", bond, triplet_options);
        const CafqaResult cafqa_t = run_molecular_cafqa(
            triplet, 8000 + static_cast<std::uint64_t>(bond * 100),
            problems::make_objective(triplet, 4.0, 4.0));

        const double cafqa_best =
            std::min(cafqa_s.best_energy, cafqa_t.best_energy);
        const GroundState ground =
            lanczos_ground_state(singlet.hamiltonian);
        const double exact = ground.energy;
        const double cafqa_err = std::abs(cafqa_best - exact);

        energy.add_row(against_exact(
            {Table::num(bond, 2), Table::num(singlet.hf_energy, 4),
             Table::num(cafqa_s.best_energy, 4),
             Table::num(cafqa_t.best_energy, 4), Table::num(cafqa_best, 4),
             Table::num(exact, 4),
             singlet.scf_converged ? "yes"
                                   : "NO (extrapolated trend in paper)"},
            ground, {5}));
        accuracy.add_row(against_exact(
            {Table::num(bond, 2),
             Table::sci(std::abs(singlet.hf_energy - exact), 2),
             Table::sci(std::max(cafqa_err, 1e-10), 2),
             cafqa_err <= chemical_accuracy ? "yes" : "no"},
            ground, {1, 2, 3}));
        correlation.add_row(against_exact(
            {Table::num(bond, 2),
             Table::num(correlation_recovered_percent(
                            singlet.hf_energy, cafqa_best, exact),
                        1)},
            ground, {1}));
    }

    energy.print(std::cout);
    accuracy.print(std::cout);
    correlation.print(std::cout);
}

void
BM_H2OHamiltonianBuild(benchmark::State& state)
{
    for (auto _ : state) {
        auto system = problems::make_molecular_system("H2O", 1.0);
        benchmark::DoNotOptimize(system.hamiltonian.num_terms());
    }
}
BENCHMARK(BM_H2OHamiltonianBuild)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

} // namespace

int
main(int argc, char** argv)
{
    print_fig10();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
