// Regenerates paper Fig. 6: per-Pauli-term expectation values for LiH at
// 4.8 Angstrom (3x equilibrium), comparing Hartree-Fock, the CAFQA
// Clifford ansatz, and the exact ground state. Terms are grouped the
// way the paper plots them: computational basis terms, non-computational
// terms selected by CAFQA (|<P>| = 1), and the remaining terms beyond
// the Clifford reach. The exact ground state comes from the dense
// eigendecomposition (tests/reference_dense.hpp); these systems are tiny.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "../tests/reference_dense.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/evaluator.hpp"
#include "core/hartree_fock_baseline.hpp"
#include "core/clifford_ansatz.hpp"

namespace {

using namespace cafqa;
using namespace cafqa::bench;

void
print_panel(const std::string& molecule, double bond, std::uint64_t seed)
{
    const auto system = problems::make_molecular_system(molecule, bond);
    const VqaObjective objective = problems::make_objective(system);
    // Pure BO search (no HF prior), matching the paper's methodology:
    // the resulting stabilizer state is a genuine non-computational
    // basis state whose selected non-diagonal terms this figure plots.
    // (With the HF prior injected, the search instead discovers that a
    // *different determinant* — the bond-broken configuration — is
    // near-exact for this active space; see the summary rows.)
    const CafqaResult cafqa =
        CafqaPipeline({.ansatz = system.ansatz, .objective = objective,
                       .search = cafqa_budget(system.num_qubits, seed)})
            .run_clifford_search();

    CliffordEvaluator clifford(system.ansatz);
    clifford.prepare(cafqa.best_steps);

    const double exact_energy =
        converged_energy(lanczos_ground_state(system.hamiltonian));
    const Statevector exact_state =
        reference::dense_ground_state(system.hamiltonian);

    struct Row
    {
        std::string label;
        double hf;
        int cafqa;
        double exact;
        int group; // 0 comp-basis, 1 CAFQA-selected, 2 rest
    };
    std::vector<Row> rows;
    for (const auto& term : system.hamiltonian.terms()) {
        if (term.string.is_identity_letters()) {
            continue;
        }
        Row row;
        row.label = term.string.to_label();
        std::vector<int> hf_bits = system.hf_bits;
        PauliSum single(system.num_qubits);
        single.add_term(1.0, term.string);
        row.hf = basis_state_expectation(single, hf_bits);
        row.cafqa = clifford.expectation(term.string);
        row.exact = exact_state.expectation(single);

        bool diagonal = true;
        for (const auto w : term.string.x_words()) {
            diagonal = diagonal && (w == 0);
        }
        if (diagonal) {
            row.group = 0;
        } else if (row.cafqa != 0) {
            row.group = 1;
        } else {
            row.group = 2;
        }
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        if (a.group != b.group) {
            return a.group < b.group;
        }
        return a.exact < b.exact;
    });

    const char* const group_names[] = {
        "computational basis", "non-comp. basis, CAFQA-selected",
        "non-comp. basis, beyond Clifford reach"};
    Table table(molecule + " @ " + Table::num(bond, 2) +
                " A: per-term expectations (HF vs CAFQA vs Exact)");
    table.set_header({"Pauli", "Group", "HF", "CAFQA", "Exact"});
    for (const auto& row : rows) {
        table.add_row({row.label, group_names[row.group],
                       Table::num(row.hf, 1),
                       Table::num(static_cast<double>(row.cafqa), 1),
                       Table::num(row.exact, 4)});
    }
    table.print(std::cout);

    std::size_t selected = 0;
    for (const auto& row : rows) {
        if (row.group == 1) {
            ++selected;
        }
    }
    Table summary(molecule + " summary");
    summary.set_header({"Quantity", "Value"});
    summary.add_row({"HF energy (Ha)", Table::num(system.hf_energy, 6)});
    summary.add_row({"CAFQA energy (Ha)", Table::num(cafqa.best_energy, 6)});
    summary.add_row({"Exact energy (Ha)", Table::num(exact_energy, 6)});
    summary.add_row({"Non-diagonal terms CAFQA captures",
                     std::to_string(selected)});
    const BestBitstring best_det = best_constrained_bitstring(
        system.hamiltonian,
        {{system.number_op, 2.0}, {system.sz_op, 0.0}},
        system.num_qubits);
    summary.add_row({"Best in-sector determinant (Ha)",
                     Table::num(best_det.energy, 6)});
    summary.print(std::cout);
}

void
BM_CafqaEvaluationLiH(benchmark::State& state)
{
    static const auto system = problems::make_molecular_system("LiH", 4.8);
    CliffordEvaluator evaluator(system.ansatz);
    std::vector<int> steps(system.ansatz.num_params(), 1);
    for (auto _ : state) {
        evaluator.prepare(steps);
        benchmark::DoNotOptimize(
            evaluator.expectation(system.hamiltonian));
    }
}
BENCHMARK(BM_CafqaEvaluationLiH);

} // namespace

void
print_fig06()
{
    banner("Fig. 6: expectation value of each Pauli term");
    // The paper's target: LiH at 3x equilibrium. For our LiH active
    // space the Clifford optimum happens to be a (bond-broken)
    // determinant — reported in the summary — so a stretched H2 panel
    // is added where the optimal stabilizer state is necessarily
    // entangled and the non-diagonal selections are visible.
    print_panel("LiH", 4.8, 2023);
    print_panel("H2", 2.1, 2024);
}

int
main(int argc, char** argv)
{
    print_fig06();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
