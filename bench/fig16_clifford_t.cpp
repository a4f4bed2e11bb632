// Regenerates paper Fig. 16: the Clifford+kT extension (Section 8).
// Dissociation curves for H2 with up to 1 T gate and LiH with up to 4 T
// gates (2 at quick scale), showing that a handful of T gates recovers
// correlation energy at bond lengths where Clifford-only CAFQA is
// limited — while remaining classically simulable via the exact branch
// decomposition T = alpha I + beta S.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/evaluator.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
sweep_molecule(const std::string& name, std::size_t max_t,
               std::size_t num_bonds, std::uint64_t seed)
{
    const auto info = problems::molecule_info(name);
    // The paper plots the mid-to-stretched region where Clifford-only
    // accuracy degrades.
    const auto bonds = linspace(info.equilibrium_bond_length,
                                info.max_bond_length, num_bonds);

    Table table("(" + name + ") energy with up to " +
                std::to_string(max_t) + " T gates (Hartree)");
    table.set_header({"Bond(A)", "CAFQA", "CAFQA+" + std::to_string(max_t) +
                          "T", "Exact", "T gates used",
                      "CorrRecovered(%): CAFQA -> +kT"});

    for (const double bond : bonds) {
        const auto system = problems::make_molecular_system(name, bond);
        CafqaPipeline pipeline(molecular_pipeline_config(system, seed));
        const CafqaResult& base = pipeline.run_clifford_search();
        const TBoostResult& boost = pipeline.run_t_boost(max_t);
        const GroundState ground = lanczos_ground_state(system.hamiltonian);
        const double exact = ground.energy;

        const double rec_clifford = correlation_recovered_percent(
            system.hf_energy, base.best_energy, exact);
        const double rec_kt = correlation_recovered_percent(
            system.hf_energy, boost.best_energy, exact);
        table.add_row(against_exact(
            {Table::num(bond, 2), Table::num(base.best_energy, 5),
             Table::num(boost.best_energy, 5), Table::num(exact, 5),
             std::to_string(boost.t_positions.size()),
             Table::num(rec_clifford, 1) + " -> " + Table::num(rec_kt, 1)},
            ground, {3, 5}));
    }
    table.print(std::cout);
}

void
print_fig16()
{
    banner("Fig. 16: CAFQA + kT dissociation curves");
    sweep_molecule("H2", 1, pick(5, 10), 1601);
    sweep_molecule("LiH", pick(2, 4), pick(4, 8), 1602);
    std::cout << "\nSimulation cost grows as 2^k branches per evaluation"
                 " (paper Section 8: exponential in the T count), so k"
                 " stays small.\n";
}

void
BM_BranchEvaluationLiH(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 3.0);
    Circuit with_t = system.ansatz;
    with_t.t(0);
    with_t.t(2);
    CliffordTEvaluator evaluator(with_t);
    std::vector<int> steps(system.ansatz.num_params(), 1);
    for (auto _ : state) {
        evaluator.prepare(steps);
        benchmark::DoNotOptimize(
            evaluator.expectation(system.hamiltonian));
    }
}
BENCHMARK(BM_BranchEvaluationLiH);

} // namespace

int
main(int argc, char** argv)
{
    print_fig16();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
