// Ablation: ansatz structure choices (paper Sections 2.2 and 8). The
// paper builds on a hardware-efficient EfficientSU2 circuit with one
// layer of linear entanglement; this bench varies the number of
// entanglement layers (reps) and the rotation blocks and reports the
// Clifford-space accuracy vs the parameter count — the trade-off the
// "Beyond a hardware-efficient ansatz" discussion refers to.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "circuit/efficient_su2.hpp"
#include "common/table.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
evaluate_variant(const std::string& label, const Circuit& ansatz,
                 const problems::MolecularSystem& system, double exact,
                 std::uint64_t seed, Table& table)
{
    const VqaObjective objective = problems::make_objective(system);
    CafqaOptions options = cafqa_budget(system.num_qubits, seed);
    // HF seeding requires the default layout; variants search unseeded,
    // so give them the same extra budget uniformly.
    options.warmup += 50;
    options.iterations += 50;
    const CafqaResult result =
        CafqaPipeline({.ansatz = ansatz, .objective = objective,
                       .search = options})
            .run_clifford_search();
    table.add_row({label, std::to_string(ansatz.num_params()),
                   Table::sci(std::max(result.best_energy - exact, 1e-10),
                              2),
                   std::to_string(result.evaluations_to_best)});
}

void
print_ablation()
{
    banner("Ablation: hardware-efficient ansatz structure");

    const auto system = problems::make_molecular_system("LiH", 3.4);
    const double exact =
        converged_energy(lanczos_ground_state(system.hamiltonian));
    std::cout << "LiH @ 3.4 A, exact = " << exact << " Ha, HF error = "
              << Table::sci(system.hf_energy - exact, 2) << " Ha\n\n";

    Table table("Clifford-space accuracy by ansatz variant");
    table.set_header({"Variant", "#Params", "CAFQA error(Ha)",
                      "EvalsToBest"});

    const std::size_t n = system.num_qubits;
    evaluate_variant("RY+RZ, reps=1 (paper)", make_efficient_su2(n),
                     system, exact, 81, table);

    EfficientSu2Options reps2;
    reps2.reps = 2;
    evaluate_variant("RY+RZ, reps=2", make_efficient_su2(n, reps2), system,
                     exact, 82, table);

    EfficientSu2Options ry_only;
    ry_only.rotation_blocks = {GateKind::Ry};
    evaluate_variant("RY only, reps=1", make_efficient_su2(n, ry_only),
                     system, exact, 83, table);

    EfficientSu2Options rx_rz;
    rx_rz.rotation_blocks = {GateKind::Rx, GateKind::Rz};
    evaluate_variant("RX+RZ, reps=1", make_efficient_su2(n, rx_rz), system,
                     exact, 84, table);

    EfficientSu2Options no_final;
    no_final.final_rotation_layer = false;
    evaluate_variant("RY+RZ, no final layer",
                     make_efficient_su2(n, no_final), system, exact, 85,
                     table);

    table.print(std::cout);
    std::cout << "\nLarger parameter counts enlarge the reachable"
                 " stabilizer set but inflate the 4^k search space — the"
                 " trade-off behind the paper's reps=1 default.\n";
}

void
BM_AnsatzConstruction(benchmark::State& state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(make_efficient_su2(12).num_params());
    }
}
BENCHMARK(BM_AnsatzConstruction);

} // namespace

int
main(int argc, char** argv)
{
    print_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
