// Regenerates paper Fig. 8: H2 dissociation curves — ground-state energy
// (plus the H2+ cation with an electron-count constraint), energy
// estimation error, and correlation energy recovered, for CAFQA vs
// Hartree-Fock vs Exact.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_fig08()
{
    banner("Fig. 8: H2 dissociation curves (+ H2+ cation)");

    const auto info = problems::molecule_info("H2");
    const auto bonds = linspace(info.min_bond_length, info.max_bond_length,
                                pick(7, 14));

    Table energy("(a) H2 energy (Hartree)");
    energy.set_header({"Bond(A)", "HF", "CAFQA", "Exact", "CAFQA H2+ cation"});
    Table accuracy("(b) H2 accuracy: |E - Exact| (Hartree)");
    accuracy.set_header({"Bond(A)", "HF", "CAFQA", "CAFQA<=ChemAcc"});
    Table correlation("(c) H2 correlation energy recovered (%)");
    correlation.set_header({"Bond(A)", "CAFQA"});

    for (const double bond : bonds) {
        const auto system = problems::make_molecular_system("H2", bond);
        const CafqaResult cafqa = run_molecular_cafqa(
            system, 1000 + static_cast<std::uint64_t>(bond * 100));
        const GroundState ground = lanczos_ground_state(system.hamiltonian);
        const double exact = ground.energy;

        // Cation sector: one electron, enforced through the objective
        // (paper Section 7.1.1).
        problems::MolecularSystemOptions cation_options;
        cation_options.sector_charge = +1;
        cation_options.sector_spin_2sz = +1;
        const auto cation =
            problems::make_molecular_system("H2", bond, cation_options);
        const CafqaResult cation_cafqa = run_molecular_cafqa(
            cation, 7000 + static_cast<std::uint64_t>(bond * 100),
            problems::make_objective(cation, 4.0, 4.0));

        const double hf_err = std::abs(system.hf_energy - exact);
        const double cafqa_err = std::abs(cafqa.best_energy - exact);

        energy.add_row(against_exact(
            {Table::num(bond, 2), Table::num(system.hf_energy, 5),
             Table::num(cafqa.best_energy, 5), Table::num(exact, 5),
             Table::num(cation_cafqa.best_energy, 5)},
            ground, {3}));
        accuracy.add_row(against_exact(
            {Table::num(bond, 2), Table::sci(hf_err, 2),
             Table::sci(std::max(cafqa_err, 1e-10), 2),
             cafqa_err <= chemical_accuracy ? "yes" : "no"},
            ground, {1, 2, 3}));
        correlation.add_row(against_exact(
            {Table::num(bond, 2),
             Table::num(correlation_recovered_percent(
                            system.hf_energy, cafqa.best_energy, exact),
                        1)},
            ground, {1}));
    }

    energy.print(std::cout);
    accuracy.print(std::cout);
    correlation.print(std::cout);
}

void
BM_CafqaSearchH2(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("H2", 2.0);
    static const VqaObjective objective = problems::make_objective(system);
    for (auto _ : state) {
        const CafqaResult r =
            CafqaPipeline({.ansatz = system.ansatz, .objective = objective,
                           .search = {.warmup = 50, .iterations = 50,
                                      .seed = 1}})
                .run_clifford_search();
        benchmark::DoNotOptimize(r.best_energy);
    }
}
BENCHMARK(BM_CafqaSearchH2)->Unit(benchmark::kMillisecond)->Iterations(3);

} // namespace

int
main(int argc, char** argv)
{
    print_fig08();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
