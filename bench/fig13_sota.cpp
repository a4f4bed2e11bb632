// Regenerates paper Fig. 13: CAFQA accuracy relative to the
// state-of-the-art Hartree-Fock initialization — the per-molecule
// 'Average' (mean error reduction over bond lengths) and 'Maximum'
// (best error reduction, usually at the largest bond length), plus the
// geometric means the abstract quotes (6.4x average, 56.8x maximum).

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

struct MoleculeAccuracy
{
    std::string label;
    double average = 0.0;
    double maximum = 0.0;
};

MoleculeAccuracy
evaluate_molecule(const std::string& name, std::size_t num_bonds,
                  std::uint64_t seed)
{
    const auto info = problems::molecule_info(name);
    const auto bonds =
        linspace(info.min_bond_length, info.max_bond_length, num_bonds);

    MoleculeAccuracy out;
    out.label = (name == "H10") ? "H2-S1 (as H10)" : name;
    double sum = 0.0;
    std::size_t counted = 0;
    for (const double bond : bonds) {
        const auto system = problems::make_molecular_system(name, bond);
        const CafqaResult cafqa = run_molecular_cafqa(
            system, seed + static_cast<std::uint64_t>(bond * 100));
        const GroundState ground = lanczos_ground_state(system.hamiltonian);
        if (!ground.converged) {
            std::cout << "# " << name << " @ " << Table::num(bond, 2)
                      << " A: exact solve unconverged, left out\n";
            continue;
        }
        const double exact = ground.energy;

        const double hf_err = std::abs(system.hf_energy - exact);
        const double cafqa_err =
            std::max(std::abs(cafqa.best_energy - exact), 1e-10);
        const double ratio = std::max(hf_err / cafqa_err, 1e-3);
        sum += ratio;
        out.maximum = std::max(out.maximum, ratio);
        ++counted;
    }
    out.average = sum / static_cast<double>(counted);
    return out;
}

void
print_fig13()
{
    banner("Fig. 13: CAFQA accuracy relative to Hartree-Fock");

    std::vector<std::string> molecules = {"H2", "LiH", "H6", "BeH2"};
    std::size_t num_bonds = 4;
    if (scale() == Scale::Paper) {
        molecules = {"H2", "LiH", "H2O", "N2", "H6", "H10", "NaH", "BeH2"};
        num_bonds = 10;
    }

    Table table("Relative error reduction vs HF (x)");
    table.set_header({"Molecule", "Average", "Maximum"});
    double log_avg = 0.0;
    double log_max = 0.0;
    std::uint64_t seed = 31000;
    for (const auto& name : molecules) {
        const MoleculeAccuracy acc =
            evaluate_molecule(name, num_bonds, seed);
        seed += 1000;
        table.add_row({acc.label, Table::num(acc.average, 2),
                       Table::num(acc.maximum, 2)});
        log_avg += std::log(acc.average);
        log_max += std::log(acc.maximum);
    }
    const double n = static_cast<double>(molecules.size());
    table.add_row({"Geomean", Table::num(std::exp(log_avg / n), 2),
                   Table::num(std::exp(log_max / n), 2)});
    table.print(std::cout);

    std::cout << "\nPaper reports: geomean Average = 6.39x, geomean"
                 " Maximum = 56.84x (8 molecules, full bond sweeps; the"
                 " quick scale covers a subset).\n";
}

void
BM_RelativeAccuracyPoint(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("H2", 2.5);
    static const VqaObjective objective = problems::make_objective(system);
    for (auto _ : state) {
        const CafqaResult r =
            CafqaPipeline({.ansatz = system.ansatz, .objective = objective,
                           .search = {.warmup = 60, .iterations = 60,
                                      .seed = 3}})
                .run_clifford_search();
        benchmark::DoNotOptimize(r.best_energy);
    }
}
BENCHMARK(BM_RelativeAccuracyPoint)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

} // namespace

int
main(int argc, char** argv)
{
    print_fig13();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
